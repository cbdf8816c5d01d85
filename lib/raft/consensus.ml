open Sim
module Transport = Net.Transport

module type State_machine = sig
  type t

  type cmd

  type output

  val apply : t -> cmd -> output

  type snapshot

  val snapshot : t -> snapshot

  val restore : snapshot -> t
end

module Make (Sm : State_machine) = struct
  type node_id = int

  (* One log entry carries a *batch* of commands: the group-commit
     proposer folds every command queued while an append was in flight
     into a single entry, so the whole batch pays one replication round.
     Unbatched submissions are just singleton batches. *)
  type entry = { e_term : int; e_cmds : Sm.cmd list }

  type role = Follower | Candidate | Leader

  type msg =
    | Request_vote of {
        rv_term : int;
        candidate : node_id;
        last_log_index : int;
        last_log_term : int;
      }
    | Append_entries of {
        ae_term : int;
        leader : node_id;
        prev_index : int;
        prev_term : int;
        entries : entry list;
        leader_commit : int;
      }
    | Install_snapshot of {
        is_term : int;
        is_leader : node_id;
        snap_index : int;
        snap_term : int;
        snap_data : Sm.snapshot;
      }

  type reply =
    | Vote of { v_term : int; granted : bool }
    | Append of { a_term : int; success : bool; match_idx : int }
    | Down

  type client_reply =
    | Applied of Sm.output list
    | Redirect of node_id option
    | Unavailable

  (* One client submission inside a (possibly coalesced) entry: its
     [w_count] consecutive commands resolve [w_iv] with their outputs. *)
  type waiter = { w_count : int; w_iv : Sm.output list option Ivar.t }

  (* A submission waiting for the proposer to fold it into an entry. *)
  type proposal = {
    p_cmds : Sm.cmd list;
    p_enqueued : float;
    p_iv : Sm.output list option Ivar.t;
  }

  type node = {
    id : node_id;
    loc : Net.Location.t;
    rng : Rng.t;
    mutable alive : bool;
    mutable epoch : int; (* bumped on crash/restart to retire stale fibers *)
    (* Persistent state (survives restart). *)
    mutable current_term : int;
    mutable voted_for : node_id option;
    log : entry Vec.t; (* entries (snap_index+1) .. *)
    mutable snap : (int * int * Sm.snapshot) option;
        (* compacted prefix: (last index, its term, SM snapshot) *)
    (* Volatile state. *)
    mutable role : role;
    mutable commit_index : int;
    mutable last_applied : int;
    mutable known_leader : node_id option;
    mutable last_heartbeat : float;
    mutable next_index : int array;
    mutable match_index : int array;
    compaction_threshold : int option;
    mutable sm : Sm.t;
    pending : (int, int * waiter list) Hashtbl.t;
        (* log index -> (term when proposed, client wakeups in batch order) *)
    mutable prop_queue : proposal list; (* newest first; group commit only *)
    mutable proposer_running : bool;
    (* The durable-append device (one per node): log writes serialize
       through it when [append_latency] > 0. *)
    mutable app_lock : bool;
    app_waiters : (unit -> unit) Queue.t;
  }

  type cluster = {
    net : Transport.t;
    nodes : node array;
    node_svcs : (msg, reply) Transport.service array;
    client_svcs : (Sm.cmd list, client_reply) Transport.service array;
    sm_factory : unit -> Sm.t;
    election_lo : float;
    election_hi : float;
    heartbeat : float;
    rpc_timeout : float;
    group_commit : bool;
    append_latency : float;
    on_batch : size:int -> queue_delay:float -> unit;
    mutable on_apply : node_id -> int -> Sm.cmd -> unit;
    leader_history : (int, node_id list) Hashtbl.t;
  }

  let size c = Array.length c.nodes

  let majority c = (size c / 2) + 1

  let log_base n = match n.snap with Some (i, _, _) -> i | None -> 0

  let last_index n = log_base n + Vec.length n.log

  let entry_at n idx = Vec.get n.log (idx - log_base n - 1)

  let term_at n idx =
    if idx <= 0 then 0
    else
      match n.snap with
      | Some (i, t, _) when idx = i -> t
      | Some (i, _, _) when idx < i ->
          invalid_arg "Consensus.term_at: index below the snapshot"
      | Some _ | None -> (entry_at n idx).e_term

  let fail_pending n =
    Hashtbl.iter
      (fun _ (_, ws) ->
        List.iter (fun w -> ignore (Ivar.try_fill w.w_iv None)) ws)
      n.pending;
    Hashtbl.reset n.pending;
    (* Queued-but-unproposed submissions fail with the in-flight ones:
       their clients retry through [submit] against the next leader. *)
    List.iter (fun p -> ignore (Ivar.try_fill p.p_iv None)) n.prop_queue;
    n.prop_queue <- []

  let become_follower n term =
    if term > n.current_term then begin
      n.current_term <- term;
      n.voted_for <- None
    end;
    if n.role = Leader then fail_pending n;
    n.role <- Follower

  (* Compact the applied prefix of the log into a state-machine
     snapshot once it exceeds the configured threshold. *)
  let maybe_compact n =
    match n.compaction_threshold with
    | Some threshold when n.last_applied - log_base n >= threshold ->
        let snap_term = term_at n n.last_applied in
        let data = Sm.snapshot n.sm in
        Vec.drop n.log (n.last_applied - log_base n);
        n.snap <- Some (n.last_applied, snap_term, data)
    | Some _ | None -> ()

  (* Split [outs] into a [w.w_count]-sized slice per waiter, in order. *)
  let resolve_waiters waiters outs ok =
    ignore
      (List.fold_left
         (fun rest w ->
           let rec take k acc rest =
             if k = 0 then (List.rev acc, rest)
             else
               match rest with
               | [] -> (List.rev acc, [])
               | o :: tl -> take (k - 1) (o :: acc) tl
           in
           let mine, rest = take w.w_count [] rest in
           ignore (Ivar.try_fill w.w_iv (if ok then Some mine else None));
           rest)
         outs waiters)

  let apply_committed c n =
    while n.last_applied < n.commit_index do
      n.last_applied <- n.last_applied + 1;
      let e = entry_at n n.last_applied in
      (* The whole batch applies back-to-back with nothing interleaved:
         commands of one entry are atomic with respect to other entries. *)
      let outs =
        List.map
          (fun cmd ->
            let out = Sm.apply n.sm cmd in
            c.on_apply n.id n.last_applied cmd;
            out)
          e.e_cmds
      in
      (match Hashtbl.find_opt n.pending n.last_applied with
      | Some (term, waiters) ->
          Hashtbl.remove n.pending n.last_applied;
          resolve_waiters waiters outs (term = e.e_term)
      | None -> ())
    done;
    maybe_compact n

  let advance_commit c n =
    let quorum = majority c in
    let rec scan i =
      if i > n.commit_index then
        (* Count self plus replicated followers; the leader's own slot in
           match_index stays 0 so the fold only counts peers. *)
        if
          term_at n i = n.current_term
          && 1
             + Array.fold_left
                 (fun acc m -> if m >= i then acc + 1 else acc)
                 0 n.match_index
             >= quorum
        then n.commit_index <- i
        else scan (i - 1)
    in
    scan (last_index n);
    apply_committed c n

  (* --- Replication (leader side) ---------------------------------- *)

  let rec replicate_to c n peer =
    if n.alive && n.role = Leader && peer <> n.id then begin
      let term0 = n.current_term in
      let ni = n.next_index.(peer) in
      let prev = ni - 1 in
      let msg =
        (* A follower that lags behind the compacted prefix gets the
           snapshot instead of (discarded) entries. *)
        if prev < log_base n then
          match n.snap with
          | Some (snap_index, snap_term, snap_data) ->
              Install_snapshot
                { is_term = term0; is_leader = n.id; snap_index; snap_term;
                  snap_data }
          | None -> assert false
        else
          Append_entries
            {
              ae_term = term0;
              leader = n.id;
              prev_index = prev;
              prev_term = term_at n prev;
              entries =
                List.init
                  (max 0 (last_index n - prev))
                  (fun k -> entry_at n (prev + 1 + k));
              leader_commit = n.commit_index;
            }
      in
      match
        Transport.call_timeout c.net ~from:n.loc ~timeout:c.rpc_timeout
          c.node_svcs.(peer) msg
      with
      | Some (Append { a_term; success; match_idx })
        when n.alive && n.role = Leader && n.current_term = term0 ->
          if a_term > n.current_term then become_follower n a_term
          else if success then begin
            n.match_index.(peer) <- max n.match_index.(peer) match_idx;
            n.next_index.(peer) <- n.match_index.(peer) + 1;
            advance_commit c n
          end
          else begin
            n.next_index.(peer) <- max 1 (ni - 1);
            (* Retry immediately with the earlier prefix. *)
            replicate_to c n peer
          end
      | Some (Vote _ | Append _ | Down) | None -> ()
    end

  let replicate_all c n =
    Array.iter
      (fun peer ->
        if peer.id <> n.id then
          Engine.spawn ~name:"raft-replicate" (fun () ->
              replicate_to c n peer.id))
      c.nodes

  let rec heartbeat_loop c n epoch term =
    if n.alive && n.epoch = epoch && n.role = Leader && n.current_term = term
    then begin
      replicate_all c n;
      Engine.sleep c.heartbeat;
      heartbeat_loop c n epoch term
    end

  let become_leader c n =
    n.role <- Leader;
    n.known_leader <- Some n.id;
    let prev = Option.value ~default:[] (Hashtbl.find_opt c.leader_history n.current_term) in
    Hashtbl.replace c.leader_history n.current_term (n.id :: prev);
    n.next_index <- Array.make (size c) (last_index n + 1);
    n.match_index <- Array.make (size c) 0;
    let epoch = n.epoch and term = n.current_term in
    Engine.spawn ~name:"raft-heartbeat" (fun () -> heartbeat_loop c n epoch term);
    advance_commit c n

  (* --- Elections --------------------------------------------------- *)

  let start_election c n =
    n.role <- Candidate;
    n.current_term <- n.current_term + 1;
    n.voted_for <- Some n.id;
    n.known_leader <- None;
    n.last_heartbeat <- Engine.now ();
    let term0 = n.current_term in
    let votes = ref 1 in
    let won = ref false in
    let msg =
      Request_vote
        {
          rv_term = term0;
          candidate = n.id;
          last_log_index = last_index n;
          last_log_term = term_at n (last_index n);
        }
    in
    Array.iter
      (fun peer ->
        if peer.id <> n.id then
          Engine.spawn ~name:"raft-vote" (fun () ->
              match
                Transport.call_timeout c.net ~from:n.loc ~timeout:c.rpc_timeout
                  c.node_svcs.(peer.id) msg
              with
              | Some (Vote { v_term; granted })
                when n.alive && n.role = Candidate && n.current_term = term0 ->
                  if v_term > n.current_term then become_follower n v_term
                  else if granted then begin
                    incr votes;
                    if (not !won) && !votes >= majority c then begin
                      won := true;
                      become_leader c n
                    end
                  end
              | Some (Vote _ | Append _ | Down) | None -> ()))
      c.nodes;
    if (not !won) && !votes >= majority c then begin
      (* Single-node cluster wins immediately. *)
      won := true;
      become_leader c n
    end

  let rec election_ticker c n epoch =
    if n.alive && n.epoch = epoch then begin
      let timeout = Rng.uniform n.rng c.election_lo c.election_hi in
      Engine.sleep timeout;
      if
        n.alive && n.epoch = epoch && n.role <> Leader
        && Engine.now () -. n.last_heartbeat >= timeout
      then start_election c n;
      election_ticker c n epoch
    end

  (* --- Message handlers (follower side) ---------------------------- *)

  let handle_request_vote n ~rv_term ~candidate ~last_log_index ~last_log_term =
    if rv_term > n.current_term then become_follower n rv_term;
    if rv_term < n.current_term then
      Vote { v_term = n.current_term; granted = false }
    else begin
      let my_last = last_index n in
      let my_last_term = term_at n my_last in
      let up_to_date =
        last_log_term > my_last_term
        || (last_log_term = my_last_term && last_log_index >= my_last)
      in
      let granted =
        up_to_date
        && match n.voted_for with None -> true | Some v -> v = candidate
      in
      if granted then begin
        n.voted_for <- Some candidate;
        n.last_heartbeat <- Engine.now ()
      end;
      Vote { v_term = n.current_term; granted }
    end

  let handle_append_entries c n ~ae_term ~leader ~prev_index ~prev_term ~entries
      ~leader_commit =
    if ae_term < n.current_term then
      Append { a_term = n.current_term; success = false; match_idx = 0 }
    else begin
      become_follower n ae_term;
      n.known_leader <- Some leader;
      n.last_heartbeat <- Engine.now ();
      if
        prev_index < log_base n
        || prev_index > last_index n
        || term_at n prev_index <> prev_term
      then Append { a_term = n.current_term; success = false; match_idx = 0 }
      else begin
        List.iteri
          (fun k e ->
            let idx = prev_index + 1 + k in
            if idx <= last_index n && term_at n idx <> e.e_term then
              Vec.truncate n.log (idx - log_base n - 1);
            if idx > last_index n then Vec.push n.log e)
          entries;
        let last_new = prev_index + List.length entries in
        if leader_commit > n.commit_index then
          n.commit_index <- min leader_commit last_new;
        apply_committed c n;
        Append { a_term = n.current_term; success = true; match_idx = last_new }
      end
    end

  let handle_install_snapshot n ~is_term ~is_leader ~snap_index ~snap_term
      ~snap_data =
    if is_term < n.current_term then
      Append { a_term = n.current_term; success = false; match_idx = 0 }
    else begin
      become_follower n is_term;
      n.known_leader <- Some is_leader;
      n.last_heartbeat <- Engine.now ();
      if snap_index > n.commit_index then begin
        (* Discard the whole log: the snapshot supersedes it; the leader
           replicates anything newer on the next round. *)
        Vec.truncate n.log 0;
        n.snap <- Some (snap_index, snap_term, snap_data);
        n.sm <- Sm.restore snap_data;
        n.commit_index <- snap_index;
        n.last_applied <- snap_index
      end;
      Append { a_term = n.current_term; success = true; match_idx = snap_index }
    end

  let handle_msg c n msg =
    if not n.alive then Down
    else
      match msg with
      | Request_vote { rv_term; candidate; last_log_index; last_log_term } ->
          handle_request_vote n ~rv_term ~candidate ~last_log_index
            ~last_log_term
      | Append_entries
          { ae_term; leader; prev_index; prev_term; entries; leader_commit } ->
          handle_append_entries c n ~ae_term ~leader ~prev_index ~prev_term
            ~entries ~leader_commit
      | Install_snapshot { is_term; is_leader; snap_index; snap_term; snap_data }
        ->
          handle_install_snapshot n ~is_term ~is_leader ~snap_index ~snap_term
            ~snap_data

  (* The modeled durable log append (fsync): one device per node, so
     concurrent appends serialize; the lock hands over directly to the
     next waiter so arrivals cannot overtake queued appends. *)
  let append_acquire n =
    if n.app_lock then
      Engine.suspend (fun resume ->
          Queue.push (fun () -> resume ()) n.app_waiters)
    else n.app_lock <- true

  let append_release n =
    match Queue.take_opt n.app_waiters with
    | Some resume -> resume () (* lock ownership transfers *)
    | None -> n.app_lock <- false

  let propose_entry_now c n props =
    let cmds = List.concat_map (fun p -> p.p_cmds) props in
    Vec.push n.log { e_term = n.current_term; e_cmds = cmds };
    let idx = last_index n in
    let waiters =
      List.map (fun p -> { w_count = List.length p.p_cmds; w_iv = p.p_iv }) props
    in
    Hashtbl.replace n.pending idx (n.current_term, waiters);
    let now = Engine.now () in
    let oldest =
      List.fold_left (fun acc p -> Float.min acc p.p_enqueued) now props
    in
    c.on_batch ~size:(List.length cmds) ~queue_delay:(now -. oldest);
    if c.append_latency > 0.0 then append_release n;
    replicate_all c n;
    advance_commit c n

  (* Append one entry holding every command of [props] (arrival order)
     and start replicating it. Returns after kicking off replication;
     completion is signalled through each proposal's ivar. With a
     nonzero [append_latency] the entry first pays one serialized
     durable-append — per ENTRY, not per command, which is exactly the
     cost group commit amortizes. The device releases before the network
     leg, so appends pipeline with replication. *)
  let propose_entry c n props =
    if c.append_latency > 0.0 then begin
      append_acquire n;
      Engine.sleep c.append_latency;
      if not (n.alive && n.role = Leader) then begin
        (* Lost leadership (or crashed) while the append was in flight:
           fail the batch so its clients retry via [submit]'s redirect
           loop, and pass the device on. *)
        List.iter (fun p -> ignore (Ivar.try_fill p.p_iv None)) props;
        append_release n
      end
      else propose_entry_now c n props
    end
    else propose_entry_now c n props

  (* Group-commit proposer: one fiber per leader drains the whole queue
     into a single entry, waits for that entry to resolve (commit+apply,
     or leadership loss), then repeats. Commands arriving while an entry
     is in flight pile up and form the next batch — classic group commit
     with no artificial delay window. *)
  let rec proposer_loop c n =
    match List.rev n.prop_queue with
    | [] -> n.proposer_running <- false
    | props when n.alive && n.role = Leader ->
        n.prop_queue <- [];
        propose_entry c n props;
        (match props with
        | p :: _ -> ignore (Ivar.read p.p_iv)
        | [] -> ());
        proposer_loop c n
    | props ->
        (* Lost leadership with submissions still queued: fail them so
           their clients retry against the new leader. *)
        List.iter (fun p -> ignore (Ivar.try_fill p.p_iv None)) props;
        n.prop_queue <- [];
        n.proposer_running <- false

  let handle_client c n cmds =
    if not n.alive then Unavailable
    else if n.role <> Leader then Redirect n.known_leader
    else if cmds = [] then Applied []
    else begin
      let iv = Ivar.create () in
      let p = { p_cmds = cmds; p_enqueued = Engine.now (); p_iv = iv } in
      if c.group_commit then begin
        n.prop_queue <- p :: n.prop_queue;
        if not n.proposer_running then begin
          n.proposer_running <- true;
          Engine.spawn ~name:"raft-proposer" (fun () -> proposer_loop c n)
        end
      end
      else propose_entry c n [ p ];
      match Ivar.read iv with
      | Some outs -> Applied outs
      | None -> Redirect n.known_leader
    end

  (* --- Public API --------------------------------------------------- *)

  let create ~net ~locs ~sm ?(election_timeout = (150.0, 300.0))
      ?(heartbeat_interval = 40.0) ?(rpc_timeout = 50.0)
      ?compaction_threshold ?(group_commit = false) ?(append_latency = 0.0)
      ?(on_batch = fun ~size:_ ~queue_delay:_ -> ())
      ?(on_apply = fun _ _ _ -> ()) () =
    let n_nodes = List.length locs in
    if n_nodes = 0 then invalid_arg "Consensus.create: empty cluster";
    let root = Engine.rng () in
    let nodes =
      Array.of_list
        (List.mapi
           (fun id loc ->
             {
               id;
               loc;
               rng = Rng.split root;
               alive = true;
               epoch = 0;
               current_term = 0;
               voted_for = None;
               log = Vec.create ();
               snap = None;
               compaction_threshold;
               role = Follower;
               commit_index = 0;
               last_applied = 0;
               known_leader = None;
               last_heartbeat = Engine.now ();
               next_index = Array.make n_nodes 1;
               match_index = Array.make n_nodes 0;
               sm = sm ();
               pending = Hashtbl.create 16;
               prop_queue = [];
               proposer_running = false;
               app_lock = false;
               app_waiters = Queue.create ();
             })
           locs)
    in
    let lo, hi = election_timeout in
    let c_ref = ref None in
    let node_svcs =
      Array.map
        (fun n ->
          Transport.serve ~loc:n.loc
            ~name:(Printf.sprintf "raft-%d" n.id)
            (fun msg ->
              match !c_ref with Some c -> handle_msg c n msg | None -> Down))
        nodes
    in
    let client_svcs =
      Array.map
        (fun n ->
          Transport.serve ~loc:n.loc
            ~name:(Printf.sprintf "raft-client-%d" n.id)
            (fun cmd ->
              match !c_ref with
              | Some c -> handle_client c n cmd
              | None -> Unavailable))
        nodes
    in
    let c =
      {
        net;
        nodes;
        node_svcs;
        client_svcs;
        sm_factory = sm;
        election_lo = lo;
        election_hi = hi;
        heartbeat = heartbeat_interval;
        rpc_timeout;
        group_commit;
        append_latency;
        on_batch;
        on_apply;
        leader_history = Hashtbl.create 16;
      }
    in
    c_ref := Some c;
    Array.iter
      (fun n -> Engine.spawn ~name:"raft-ticker" (fun () -> election_ticker c n 0))
      nodes;
    c

  let leader c =
    let found = ref None in
    Array.iter
      (fun n -> if n.alive && n.role = Leader && !found = None then found := Some n.id)
      c.nodes;
    !found

  let submit_batch ?(timeout = 1000.0) c cmds =
    if cmds = [] then Some []
    else begin
      let deadline = Engine.now () +. timeout in
      let from = c.nodes.(0).loc in
      let rec go hint rr =
        if Engine.now () >= deadline then None
        else begin
          let target =
            match hint with
            | Some id when c.nodes.(id).alive -> id
            | _ -> (
                match leader c with
                | Some id -> id
                | None -> rr mod size c)
          in
          let remaining = deadline -. Engine.now () in
          match
            Transport.call_timeout c.net ~from
              ~timeout:(Float.min remaining (4.0 *. c.rpc_timeout))
              c.client_svcs.(target) cmds
          with
          | Some (Applied outs) -> Some outs
          | Some (Redirect h) ->
              Engine.sleep (c.heartbeat /. 2.0);
              go h (rr + 1)
          | Some Unavailable | None ->
              Engine.sleep c.heartbeat;
              go None (rr + 1)
        end
      in
      go (leader c) 0
    end

  let submit ?timeout c cmd =
    match submit_batch ?timeout c [ cmd ] with
    | Some [ out ] -> Some out
    | Some _ | None -> None

  let crash c id =
    let n = c.nodes.(id) in
    if n.alive then begin
      n.alive <- false;
      n.epoch <- n.epoch + 1;
      fail_pending n;
      n.role <- Follower;
      n.known_leader <- None
    end

  let restart c id =
    let n = c.nodes.(id) in
    if not n.alive then begin
      n.alive <- true;
      n.epoch <- n.epoch + 1;
      n.role <- Follower;
      (* The snapshot is part of persistent state: recovery restores the
         state machine from it and replays only the log suffix. *)
      (match n.snap with
      | Some (idx, _, data) ->
          n.commit_index <- idx;
          n.last_applied <- idx;
          n.sm <- Sm.restore data
      | None ->
          n.commit_index <- 0;
          n.last_applied <- 0;
          n.sm <- c.sm_factory ());
      n.known_leader <- None;
      n.last_heartbeat <- Engine.now ();
      let epoch = n.epoch in
      Engine.spawn ~name:"raft-ticker" (fun () -> election_ticker c n epoch)
    end

  let stop c =
    Array.iter
      (fun n ->
        if n.alive then begin
          n.alive <- false;
          n.epoch <- n.epoch + 1;
          fail_pending n;
          n.role <- Follower
        end)
      c.nodes

  let is_alive c id = c.nodes.(id).alive

  let current_term c id = c.nodes.(id).current_term

  let log_length c id = last_index c.nodes.(id)

  let snapshot_index c id = log_base c.nodes.(id)

  let stored_entries c id = Vec.length c.nodes.(id).log

  let commit_index c id = c.nodes.(id).commit_index

  let on_apply c f = c.on_apply <- f

  let leaders_at_term c term =
    List.sort_uniq Int.compare
      (Option.value ~default:[] (Hashtbl.find_opt c.leader_history term))
end
