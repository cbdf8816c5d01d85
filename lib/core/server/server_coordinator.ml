(* Cross-shard atomic commit (sharded LVI service).

   A request whose key set spans shards is handled by a coordinator —
   the shard the router sent it to, normally the minimum touched shard
   id — which runs a prepare round: every touched shard locks its slice,
   validates its read versions and (for write slices) installs an
   intent. The coordinator replies [Validated] iff every shard
   validated; the origin site's followup then reaches the coordinator,
   which applies ALL writes to shared primary storage (exactly one party
   applies, so deterministic re-execution can never observe a torn
   write set) and concludes each peer with a retried-until-acked
   decision carrying that peer's own committed records to publish.

   Deadlock freedom: the first prepare round runs in parallel but uses
   the all-or-nothing non-blocking [Locks.try_acquire], so it creates no
   wait-for edges; if any shard is busy, everything is released and a
   sequential fallback round re-prepares in ascending shard order with
   blocking acquires — every lock wait then follows the global
   (shard, key) lexicographic order, so any wait cycle would have to
   increase strictly around itself. Single-shard requests (sorted-key
   incremental acquire at one shard) embed in the same order.

   Protocol timing: the try round fails fast (prepares are
   non-blocking); the ordered fallback must outlive lock waits, which
   are bounded by intent timers. Decisions are retried until
   acknowledged — the retry cap only bounds a pathological total
   blackout. *)

open Sim
open Server_state
module Transport = Net.Transport
module Locks = Store.Locks
module Intents = Store.Intents
module Tracer = Metrics.Tracer

let try_prepare_timeout = 50.0
let blocking_prepare_timeout = 4000.0
let blocking_prepare_attempts = 4
let decide_timeout = 200.0
let decide_retry_backoff = 100.0
let decide_retries = 50

(* Partition a key set into per-shard slices, ascending by shard id. *)
let slices_of sh ~reads ~writes =
  let slices = Hashtbl.create 4 in
  let add k f =
    let s = Shard.Directory.shard_of_key sh.sh_dir k in
    let sl =
      Option.value ~default:{ sl_reads = []; sl_writes = [] }
        (Hashtbl.find_opt slices s)
    in
    Hashtbl.replace slices s (f sl)
  in
  List.iter
    (fun k -> add k (fun sl -> { sl with sl_writes = k :: sl.sl_writes }))
    writes;
  List.iter
    (fun (k, v) ->
      add k (fun sl -> { sl with sl_reads = (k, v) :: sl.sl_reads }))
    reads;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun s sl acc -> (s, sl) :: acc) slices [])

let cross_parts (t : t) (req : Proto.lvi_request) =
  let sh = t.sharding in
  if Shard.Directory.shards sh.sh_dir = 1 then None
  else
    match slices_of sh ~reads:req.reads ~writes:req.writes with
    | [] -> None
    | [ (s, _) ] when s = sh.sh_id -> None
    | parts -> Some parts

(* Participant side of one prepare round — also runs the coordinator's
   own slice. On [Shard_prepared] and [Shard_stale] the slice's locks
   are HELD (stale keeps them so a backup can execute under full
   coverage, like the single-server mismatch path); only [Shard_busy]
   holds nothing. Round arithmetic makes the handler safe against
   delayed, reordered or duplicated prepares: a round at or below the
   highest concluded round is refused, a newer round supersedes an
   orphaned older one, and a blocking acquire that completes after its
   round was concluded releases itself. *)
let prepare_slice (t : t) sh (sp : Proto.shard_prepare) : Proto.shard_vote =
  let exec_id = sp.sp_exec_id in
  let decided () =
    Option.value ~default:0 (Hashtbl.find_opt sh.sh_decided exec_id)
  in
  let active () =
    match Hashtbl.find_opt sh.sh_prepared exec_id with
    | Some (r, _, _) -> r
    | None -> 0
  in
  let owner =
    if sp.sp_round = 1 then exec_id
    else Printf.sprintf "%s@%d" exec_id sp.sp_round
  in
  if
    sp.sp_round <= decided ()
    || sp.sp_round <= active ()
    || Hashtbl.mem sh.sh_preparing owner
  then Proto.Shard_busy
  else begin
    (match Hashtbl.find_opt sh.sh_prepared exec_id with
    | Some (r, owner', keys') when r < sp.sp_round ->
        (* The coordinator has moved on; its abort for round [r] may
           still be in flight behind this prepare. *)
        Hashtbl.remove sh.sh_prepared exec_id;
        Intents.remove t.intents ~exec_id;
        Server_persist.release t ~owner:owner' keys'
    | _ -> ());
    let sl = { sl_reads = sp.sp_reads; sl_writes = sp.sp_writes } in
    let lock_list =
      Locks.lock_list ~reads:(List.map fst sl.sl_reads) ~writes:sl.sl_writes
    in
    let keys = List.map fst lock_list in
    Hashtbl.replace sh.sh_preparing owner ();
    let granted =
      if sp.sp_blocking then begin
        Server_persist.acquire t ~owner lock_list;
        true
      end
      else if Locks.try_acquire t.locks ~owner lock_list then begin
        (* [acquire]'s bookkeeping without the blocking. *)
        t.owners <- t.owners + 1;
        (match t.repl with
        | None -> ()
        | Some _ -> Server_persist.persist_locks t ~exec_id:owner keys);
        true
      end
      else false
    in
    Hashtbl.remove sh.sh_preparing owner;
    if not granted then Proto.Shard_busy
    else if sp.sp_round <= decided () || sp.sp_round <= active () then begin
      (* Concluded or superseded while the blocking acquire waited; the
         decision found nothing to release, so release here. *)
      Server_persist.release t ~owner keys;
      Proto.Shard_busy
    end
    else begin
      Hashtbl.replace sh.sh_prepared exec_id (sp.sp_round, owner, keys);
      (* This shard is the lease authority for its slice: settle the
         write keys' grants before voting, so by the time the
         coordinator applies the cross-shard write set every covering
         lease is dead and (the slice being write-locked from here to
         the decision) none can be granted anew. *)
      Server_lease_authority.settle_write_leases t sl.sl_writes;
      if not sp.sp_intent then
        (* Backup re-lock round: locks only, no validation, no intent. *)
        Proto.Shard_prepared { sv_write_versions = [] }
      else begin
        Hashtbl.replace sh.sh_cross exec_id Cross_prepared;
        let version_of, stale = Server_exec.stale_reads t ~keys sl.sl_reads in
        if stale <> [] then Proto.Shard_stale { sv_stale = stale }
        else begin
          if sl.sl_writes <> [] then
            ignore (Intents.put t.intents ~exec_id : bool);
          Proto.Shard_prepared
            {
              sv_write_versions =
                List.map (fun k -> (k, version_of k)) sl.sl_writes;
            }
        end
      end
    end
  end

(* Conclude rounds <= sd_round at this shard: release the slice (if one
   is held for such a round), settle its intent, record the outcome for
   the atomicity oracle, and publish this shard's own committed (or
   repair) records to its subscribers. Idempotent: a retried decision
   finds the round already concluded and only re-acknowledges. *)
let conclude_slice (t : t) sh (sd : Proto.shard_decision) =
  let exec_id = sd.sd_exec_id in
  let prev = Option.value ~default:0 (Hashtbl.find_opt sh.sh_decided exec_id) in
  if sd.sd_round > prev then Hashtbl.replace sh.sh_decided exec_id sd.sd_round;
  (match Hashtbl.find_opt sh.sh_prepared exec_id with
  | Some (r, owner, keys) when r <= sd.sd_round ->
      Hashtbl.remove sh.sh_prepared exec_id;
      ignore (Intents.try_complete t.intents ~exec_id : bool);
      Intents.remove t.intents ~exec_id;
      Server_persist.release t ~owner keys
  | _ -> ());
  if sd.sd_round > prev then begin
    if Hashtbl.mem sh.sh_cross exec_id then
      Hashtbl.replace sh.sh_cross exec_id
        (if sd.sd_commit then Cross_committed else Cross_aborted);
    Server_propagator.publish t ?exclude:sd.sd_from sd.sd_updates
  end

let handle_shard_prepare (t : t) (sp : Proto.shard_prepare) : Proto.shard_vote =
  let sh = t.sharding in
  let vote = prepare_slice t sh sp in
  Log.debug (fun m ->
      m "shard %d: prepare %s round %d -> %a" sh.sh_id sp.sp_exec_id
        sp.sp_round Proto.pp_vote vote);
  (match vote with
  | Proto.Shard_prepared _ | Proto.Shard_stale _ ->
      sh.sh_prepares <- sh.sh_prepares + 1
  | Proto.Shard_busy -> ());
  vote

(* Conclude a round at every peer in [targets] (self is skipped; the
   coordinator concludes itself with [conclude_local]). Decisions are
   posted from spawned fibers and retried until acknowledged, so a lost
   or delayed message can only delay a peer's release, never wedge the
   coordinator — and never strand the slice, short of a blackout longer
   than every chaos window. *)
let broadcast_decisions (t : t) sh ~exec_id ~round ~commit ~from ~targets
    updates =
  let slice_updates target =
    List.filter
      (fun u -> Shard.Directory.shard_of_key sh.sh_dir u.Proto.up_key = target)
      updates
  in
  List.iter
    (fun target ->
      if target <> sh.sh_id then
        match List.assoc_opt target sh.sh_peers with
        | None -> ()
        | Some peer ->
            let sd =
              {
                Proto.sd_exec_id = exec_id;
                sd_round = round;
                sd_commit = commit;
                sd_from = from;
                sd_updates = slice_updates target;
              }
            in
            Engine.spawn ~name:"shard-decide" (fun () ->
                let rec attempt n =
                  match
                    Transport.call_timeout t.net ~from:t.config.loc
                      ~timeout:decide_timeout peer.pe_decide sd
                  with
                  | Some () -> ()
                  | None when n >= decide_retries ->
                      Log.info (fun m ->
                          m "shard %d: decision %s round %d to shard %d \
                             undeliverable"
                            sh.sh_id exec_id round target)
                  | None ->
                      Engine.sleep decide_retry_backoff;
                      attempt (n + 1)
                in
                attempt 1))
    (List.sort_uniq compare targets)

let conclude_local (t : t) sh ~exec_id ~round ~commit ~from updates =
  let own =
    List.filter
      (fun u ->
        Shard.Directory.shard_of_key sh.sh_dir u.Proto.up_key = sh.sh_id)
      updates
  in
  conclude_slice t sh
    {
      Proto.sd_exec_id = exec_id;
      sd_round = round;
      sd_commit = commit;
      sd_from = from;
      sd_updates = own;
    }

(* Conclude a cross-shard commit at the coordinator. [Some records]:
   this call concluded the intent, so count the commit and send each
   touched peer its slice of [records]; [None]: another party did. The
   coordinator's own slice retires either way. *)
let conclude_commit (t : t) ~exec_id ~from ~parts records =
  let sh = t.sharding in
  let round =
    Option.value ~default:1 (Hashtbl.find_opt sh.sh_coord_round exec_id)
  in
  (match records with
  | Some records ->
      t.s_cross_commits <- t.s_cross_commits + 1;
      broadcast_decisions t sh ~exec_id ~round ~commit:true ~from
        ~targets:(List.map fst parts) records
  | None -> ());
  conclude_local t sh ~exec_id ~round ~commit:true ~from
    (Option.value ~default:[] records)

let prepare_at (t : t) sh ~exec_id ~round ~blocking ~intent (target, sl) =
  let sp =
    {
      Proto.sp_exec_id = exec_id;
      sp_round = round;
      sp_coord = sh.sh_id;
      sp_blocking = blocking;
      sp_intent = intent;
      sp_reads = sl.sl_reads;
      sp_writes = sl.sl_writes;
    }
  in
  if target = sh.sh_id then prepare_slice t sh sp
  else
    match List.assoc_opt target sh.sh_peers with
    | None -> Proto.Shard_busy
    | Some peer -> (
        let timeout =
          if blocking then blocking_prepare_timeout else try_prepare_timeout
        in
        match
          Transport.call_timeout t.net ~from:t.config.loc ~timeout
            peer.pe_prepare sp
        with
        | Some vote -> vote
        | None ->
            (* Lost or overdue: treated as busy. The round's abort
               decision still goes to this shard, so a late prepare that
               did acquire is released (or refused on arrival). *)
            Proto.Shard_busy)

(* Coordinator side of a cross-shard LVI request (the router anchored it
   here — normally the minimum touched shard id). Runs the prepare
   rounds, merges the votes, and either installs the coordinator intent
   — [arm_intent] starts the recovery layer's intent timer; commit is
   decided later, by followup or timer — or aborts everywhere and
   serves the client through backup execution. *)
let handle_lvi_cross (t : t) (req : Proto.lvi_request) ~root ~arm_intent
    parts : Proto.lvi_response =
  let sh = t.sharding in
  let exec_id = req.exec_id in
  t.s_cross <- t.s_cross + 1;
  Server_persist.register_invocation t ~exec_id;
  Tracer.record_shard t.tracer ~shard:sh.sh_id ~parts:(List.length parts);
  let targets = List.map fst parts in
  let round = ref 0 in
  let run_round ~blocking ~intent parts =
    incr round;
    let r = !round in
    let votes =
      Tracer.with_phase t.tracer ~parent:root "shard_prepare" (fun () ->
          if blocking then
            (* Sequential, ascending shard order — the global
               (shard, key) lexicographic lock order. *)
            List.map
              (fun part ->
                (fst part, prepare_at t sh ~exec_id ~round:r ~blocking ~intent part))
              parts
          else
            (* Parallel: [Locks.try_acquire] never waits, so the round
               creates no wait-for edges. *)
            let pending =
              List.map
                (fun part ->
                  let iv = Ivar.create () in
                  Engine.spawn ~name:"shard-prepare" (fun () ->
                      Ivar.fill iv
                        (prepare_at t sh ~exec_id ~round:r ~blocking ~intent
                           part));
                  (fst part, iv))
                parts
            in
            List.map (fun (s, iv) -> (s, Ivar.read iv)) pending)
    in
    (r, votes)
  in
  let abort ~r ~parts updates =
    let extra =
      List.map
        (fun u -> Shard.Directory.shard_of_key sh.sh_dir u.Proto.up_key)
        updates
    in
    broadcast_decisions t sh ~exec_id ~round:r ~commit:false
      ~from:(Some req.from_loc)
      ~targets:(List.map fst parts @ extra)
      updates;
    conclude_local t sh ~exec_id ~round:r ~commit:false
      ~from:(Some req.from_loc) updates
  in
  let any_busy votes =
    List.exists (fun (_, v) -> v = Proto.Shard_busy) votes
  in
  (* Backup execution once validation failed somewhere, entered holding
     every shard's slice of round [r]. A dependent function's re-lock
     takes its corrected set with an ordered lock-only round (its reads
     carry no version: such rounds skip validation); a busy shard
     aborts that round and counts as a failed attempt. *)
  let cross_backup (entry : Registry.entry) ~r =
    Server_exec.backup_execute t entry req ~held:(r, parts)
      ~unlock:(fun (r, parts) -> abort ~r ~parts [])
      ~lock:(fun _ (rwset : Analyzer.Rwset.t) ->
        let lparts =
          slices_of sh
            ~reads:(List.map (fun k -> (k, 0)) rwset.reads)
            ~writes:rwset.writes
        in
        let rl, votes = run_round ~blocking:true ~intent:false lparts in
        if any_busy votes then begin
          abort ~r:rl ~parts:lparts [];
          None
        end
        else Some (rl, lparts))
  in
  let rec prepare_phase attempt =
    let r, votes = run_round ~blocking:(attempt > 0) ~intent:true parts in
    if any_busy votes then begin
      abort ~r ~parts [];
      if attempt >= blocking_prepare_attempts then None
      else prepare_phase (attempt + 1)
    end
    else Some (r, votes)
  in
  match prepare_phase 0 with
  | None ->
      (* Prepares kept failing (partitioned or blacked-out shard):
         nothing is held anywhere; give the client an error rather than
         block forever. *)
      t.s_cross_aborts <- t.s_cross_aborts + 1;
      Proto.Mismatch
        {
          backup = Proto.failed ("cross-shard prepare failed: " ^ exec_id);
          updates = [];
        }
  | Some (r, votes) -> (
      let stale =
        List.concat_map
          (fun (_, v) ->
            match v with
            | Proto.Shard_stale { sv_stale } -> sv_stale
            | Proto.Shard_prepared _ | Proto.Shard_busy -> [])
          votes
      in
      if stale = [] then begin
        t.s_validated <- t.s_validated + 1;
        let write_versions =
          List.concat_map
            (fun (_, v) ->
              match v with
              | Proto.Shard_prepared { sv_write_versions } -> sv_write_versions
              | Proto.Shard_stale _ | Proto.Shard_busy -> [])
            votes
        in
        if req.writes = [] then begin
          (* Read-only across shards: validated everywhere, nothing to
             commit — conclude immediately. *)
          t.s_cross_commits <- t.s_cross_commits + 1;
          broadcast_decisions t sh ~exec_id ~round:r ~commit:true ~from:None
            ~targets [];
          conclude_local t sh ~exec_id ~round:r ~commit:true ~from:None [];
          Proto.Validated { write_versions = []; leases = [] }
        end
        else begin
          ignore (Intents.put t.intents ~exec_id : bool);
          Hashtbl.replace t.durable_reqs exec_id req;
          Hashtbl.replace sh.sh_coord_round exec_id r;
          arm_intent req;
          Proto.Validated { write_versions; leases = [] }
        end
      end
      else begin
        (* Atomic abort: some slice failed validation, so the write set
           is applied on no shard; backup execution still serves the
           client, like the single-server mismatch path. *)
        t.s_mismatched <- t.s_mismatched + 1;
        t.s_cross_aborts <- t.s_cross_aborts + 1;
        match Registry.find t.registry req.fn_name with
        | None ->
            abort ~r ~parts [];
            Proto.Mismatch
              {
                backup = Proto.failed ("unknown function " ^ req.fn_name);
                updates = [];
              }
        | Some entry ->
            let sp_backup = Tracer.child t.tracer ~parent:root "backup_exec" in
            let backup, held = cross_backup entry ~r in
            Tracer.stop sp_backup;
            let refresh_keys =
              List.sort_uniq String.compare
                (stale @ List.map fst backup.written)
            in
            let updates = Server_propagator.fresh_updates t refresh_keys in
            (match held with
            | Some (r_held, held_parts) ->
                abort ~r:r_held ~parts:held_parts updates
            | None ->
                (* Nothing held; one more decision round just to carry
                   the repair slices to their owners' subscribers. *)
                incr round;
                abort ~r:!round ~parts:[] updates);
            Proto.Mismatch { backup; updates }
      end)

(* --- Sharded topology wiring ---------------------------------------- *)

(* A peer's participant services. The transport dispatches a service by
   value, so the coordinator builds them from the peer's state. *)
let peer_of (s : t) =
  {
    pe_prepare =
      Transport.serve s.net ~loc:s.config.loc ~name:"shard_prepare"
        (handle_shard_prepare s);
    pe_decide =
      Transport.serve s.net ~loc:s.config.loc ~name:"shard_decide"
        (conclude_slice s s.sharding);
  }

let connect_shards (t : t) servers =
  t.sharding.sh_peers <-
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.filter_map
         (fun (s : t) ->
           if s.sharding.sh_id = t.sharding.sh_id then None
           else Some (s.sharding.sh_id, peer_of s))
         servers)

let shard_id (t : t) = t.sharding.sh_id

let cross_states (t : t) =
  Hashtbl.fold
    (fun exec_id st acc ->
      ( exec_id,
        match st with
        | Cross_prepared -> `Prepared
        | Cross_committed -> `Committed
        | Cross_aborted -> `Aborted )
      :: acc)
    t.sharding.sh_cross []
