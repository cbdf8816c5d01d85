open Sim
module Transport = Net.Transport
module Framework = Radical.Framework
module Server = Radical.Server
module RaftLocks = Radical.Raft_locks

type stats = { applied : int; skipped : int }

type t = { mutable s_applied : int; mutable s_skipped : int }

let matches (f : Plan.msg_filter) ~src ~dst ~label =
  (match f.f_label with None -> true | Some l -> String.equal l label)
  && (match f.f_src with None -> true | Some s -> String.equal s src)
  && match f.f_dst with None -> true | Some d -> String.equal d dst

(* A probabilistic verdict drawn from the event's private stream: fault
   decisions never touch the transport's jitter RNG. *)
let decide rng prob = prob >= 1.0 || Rng.float rng 1.0 < prob

let windowed_hook fw rng ~duration verdict_of =
  let net = Framework.net fw in
  let h =
    Transport.add_fault net (fun ~src ~dst ~label ->
        verdict_of rng ~src ~dst ~label)
  in
  Engine.sleep duration;
  Transport.remove_fault net h

(* Shard [i mod n] of the deployment — the sole server of a one-shard
   deployment, so shard actions degrade gracefully against it. *)
let shard_server fw i =
  let srvs = Framework.servers fw in
  List.nth srvs (i mod List.length srvs)

let apply_action t fw rng (action : Plan.action) =
  let applied () = t.s_applied <- t.s_applied + 1 in
  let skipped () = t.s_skipped <- t.s_skipped + 1 in
  let crash_node cluster victim downtime =
    let node =
      match victim with
      | `Node i -> i mod RaftLocks.size cluster
      | `Leader -> (
          match RaftLocks.leader cluster with Some n -> n | None -> 0)
    in
    if RaftLocks.is_alive cluster node then begin
      applied ();
      RaftLocks.crash cluster node;
      Engine.sleep downtime;
      RaftLocks.restart cluster node
    end
    else skipped ()
  in
  match action with
  | Drop_messages { filter; prob; duration } ->
      applied ();
      windowed_hook fw rng ~duration (fun rng ~src ~dst ~label ->
          if matches filter ~src ~dst ~label && decide rng prob then
            Transport.Drop
          else Transport.Deliver)
  | Duplicate_messages { filter; prob; duration } ->
      applied ();
      windowed_hook fw rng ~duration (fun rng ~src ~dst ~label ->
          if matches filter ~src ~dst ~label && decide rng prob then
            Transport.Duplicate
          else Transport.Deliver)
  | Delay_messages { filter; extra; prob; duration } ->
      applied ();
      windowed_hook fw rng ~duration (fun rng ~src ~dst ~label ->
          if matches filter ~src ~dst ~label && decide rng prob then
            Transport.Delay extra
          else Transport.Deliver)
  | Partition { group; duration } ->
      applied ();
      let until = Engine.now () +. duration in
      let inside l = List.mem l group in
      (* Fire-and-forget followups crossing the cut are lost outright
         (the intent timer recovers them); request/response traffic is
         held back until the heal, like TCP retransmission — the
         protocol has no client-side retry, so an outright drop would
         strand the calling fiber forever. *)
      windowed_hook fw rng ~duration (fun _rng ~src ~dst ~label ->
          if inside src = inside dst then Transport.Deliver
          else if String.equal label "followup" then Transport.Drop
          else Transport.Delay (Float.max 0.0 (until -. Engine.now ())))
  | Crash_raft_node { victim; downtime } -> (
      match Server.raft_cluster (Framework.server fw) with
      | None -> skipped ()
      | Some cluster -> crash_node cluster victim downtime)
  | Restart_server ->
      applied ();
      Server.restart_recover (Framework.server fw)
  | Restart_shard i ->
      applied ();
      Server.restart_recover (shard_server fw i)
  | Crash_shard_leader { shard; downtime } -> (
      match Server.raft_cluster (shard_server fw shard) with
      | None -> skipped ()
      | Some cluster -> crash_node cluster `Leader downtime)
  | Wipe_cache loc ->
      if List.mem loc (Framework.locations fw) then begin
        applied ();
        Cache.wipe (Radical.Runtime.cache (Framework.runtime fw loc))
      end
      else skipped ()
  | Pause_site { loc; duration } ->
      applied ();
      let until = Engine.now () +. duration in
      (* Every message touching the frozen site is held back until the
         pause ends — the remaining hold time shrinks as the window
         progresses, like a real process freeze. *)
      windowed_hook fw rng ~duration (fun _rng ~src ~dst ~label:_ ->
          if String.equal src loc || String.equal dst loc then
            Transport.Delay (Float.max 0.0 (until -. Engine.now ()))
          else Transport.Deliver)

let launch fw (plan : Plan.t) =
  let t = { s_applied = 0; s_skipped = 0 } in
  let t0 = Engine.now () in
  List.iter
    (fun (e : Plan.event) ->
      Engine.spawn ~name:"nemesis" (fun () ->
          Engine.sleep (Float.max 0.0 (t0 +. e.at -. Engine.now ()));
          apply_action t fw (Rng.create (e.ev_seed + 1)) e.action))
    plan;
  t

let stats t = { applied = t.s_applied; skipped = t.s_skipped }
