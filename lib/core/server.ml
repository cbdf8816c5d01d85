(* Public facade of the LVI server engine.

   The engine itself lives in lib/core/server/, split into layers that
   each own one concern and depend only on the layers below them:

     Server_config          presets and knobs (pure data)
     Server_state           the shared mutable record
     Server_persist         lock persistence, Raft submit, at-most-once
     Server_lease_authority read-lease grant / settle / revoke
     Server_exec            execution against primary storage
     Server_propagator      cache-update publication and subscriptions
     Server_coordinator     cross-shard prepare / decide / topology
     Server_recovery        intent timers, followups, restart recovery
     Server_lvi_engine      LVI admission: reply-cache guard, ro-fast
                            and slow paths

   This module includes the configuration layer, seals
   [Server_state.t] abstract, constructs the engine, and delegates
   every operation to its layer. *)

open Sim
module Transport = Net.Transport
module RaftLocks = Raft_locks
module Tracer = Metrics.Tracer

include Server_config

type t = Server_state.t

type stats = {
  requests : int;
  validated : int;
  mismatched : int;
  followups_applied : int;
  followups_discarded : int;
  reexecutions : int;
  direct_executions : int;
  ro_fast : int;
  admission_waits : int;
  persist_flushes : int;
  prop_records : int;
  prop_batches : int;
  dup_deliveries : int;
  cross_requests : int;
  cross_commits : int;
  cross_aborts : int;
  shard_prepares : int;
  lease_grants : int;
  lease_revokes : int;
  lease_expiry_waits : int;
  lease_blocked_writes : int;
}

(* --- Construction --------------------------------------------------- *)

let create ?extsvc ?(tracer = Tracer.noop) ~net ~registry ~kv ~shard ~directory
    config =
  let extsvc = match extsvc with Some e -> e | None -> Extsvc.create () in
  let repl =
    match config.mode with
    | Singleton -> None
    | Replicated { az_rtt } ->
        let azs = [ "AZ-a"; "AZ-b"; "AZ-c" ] in
        let raft_net =
          Transport.create
            ~rtt:(fun a b -> if String.equal a b then 0.3 else az_rtt)
            ~jitter_sigma:0.02 ~tracer
            ~rng:(Rng.split (Engine.rng ()))
            ()
        in
        let cluster =
          (* Compact the lock log regularly: every acquisition appends an
             entry, so long runs would otherwise grow it unboundedly. *)
          RaftLocks.create ~net:raft_net ~locs:azs ~sm:Raft.Kvsm.create
            ~election_timeout:(50.0, 100.0) ~heartbeat_interval:15.0
            ~rpc_timeout:20.0 ~compaction_threshold:256
            ~group_commit:config.batching.group_commit
            ~append_latency:config.batching.append_cost
            ~on_batch:(fun ~size ~queue_delay ->
              Tracer.record_batch tracer ~label:"raft_entry" size;
              Tracer.record_queue tracer ~label:"raft_entry" queue_delay)
            ()
        in
        let flusher =
          if config.batching.persist_window > 0.0 then
            Some
              (Batcher.create ~window:config.batching.persist_window
                 ~on_flush:(fun ~size ~queue_delay ->
                   Tracer.record_batch tracer ~label:"lock_persist" size;
                   Tracer.record_queue tracer ~label:"lock_persist" queue_delay)
                 (fun cmds ->
                   ignore (RaftLocks.submit_batch ~tracer cluster cmds)))
          else None
        in
        Some
          {
            Server_state.cluster;
            idempotency = Store.Idempotency.create ();
            flusher;
          }
  in
  let admission =
    if config.batching.admission then
      let may_conflict a b =
        match Registry.find_pair registry a b with
        | Some Analyzer.Conflict.Disjoint | Some Analyzer.Conflict.Read_share ->
            false
        | Some Analyzer.Conflict.May_conflict | None -> true
      in
      Some
        (Admission.create ~may_conflict
           ~on_admit:(fun ~waited ->
             Tracer.record_queue tracer ~label:"admission" waited)
           ())
    else None
  in
  Server_state.create ?repl ?admission ~tracer ~net ~registry ~kv ~extsvc
    ~shard ~directory config

(* --- Propagation and lease wiring ----------------------------------- *)

let subscribe = Server_propagator.subscribe

(* Register a near-user runtime's lease-revocation service, making its
   site eligible for grants. No-op with leases off: the seed
   configuration issues no grants and registers no channels. *)
let register_lease_site (t : t) svc =
  let site = Transport.service_location svc in
  if t.config.leases.enabled && site <> t.config.loc then
    t.lease_peers <- (site, svc) :: List.remove_assoc site t.lease_peers

let lvi_service (t : t) =
  Transport.serve ~loc:t.config.loc ~name:"lvi" (Server_lvi_engine.handle_lvi t)

let followup_service (t : t) =
  Transport.serve ~loc:t.config.loc ~name:"followup"
    (Server_recovery.handle_followups t)

let exec_service (t : t) =
  Transport.serve ~loc:t.config.loc ~name:"exec"
    (Server_lvi_engine.handle_exec t)

(* --- Observation ----------------------------------------------------- *)

let stats (t : t) =
  {
    requests = t.s_requests;
    validated = t.s_validated;
    mismatched = t.s_mismatched;
    followups_applied = t.s_fu_applied;
    followups_discarded = t.s_fu_discarded;
    reexecutions = t.s_reexec;
    direct_executions = t.s_direct;
    ro_fast = t.s_ro_fast;
    admission_waits =
      (match t.admission with Some adm -> Admission.waited adm | None -> 0);
    persist_flushes =
      (match t.repl with
      | Some { flusher = Some b; _ } -> Batcher.flushes b
      | Some { flusher = None; _ } | None -> 0);
    prop_records = t.s_prop_records;
    prop_batches =
      List.fold_left (fun acc (_, b) -> acc + Batcher.flushes b) 0 t.subscribers;
    dup_deliveries = t.s_dup_deliveries;
    cross_requests = t.s_cross;
    cross_commits = t.s_cross_commits;
    cross_aborts = t.s_cross_aborts;
    shard_prepares = t.sharding.sh_prepares;
    lease_grants = t.s_lease_grants;
    lease_revokes = t.s_lease_revokes;
    lease_expiry_waits = t.s_lease_waits;
    lease_blocked_writes = t.s_lease_blocked;
  }

let locks_held (t : t) = t.owners

let outstanding_leases (t : t) = Lease.live t.lease_tbl ~now:(Engine.now ())

let pending_intents (t : t) = Store.Intents.pending_count t.intents

let prune_replies (t : t) =
  let now = Engine.now () in
  Expiring.prune t.reply_cache ~now;
  Expiring.prune t.exec_replies ~now

let dedup_entries (t : t) =
  prune_replies t;
  Expiring.length t.reply_cache + Expiring.length t.exec_replies

let held_replies (t : t) =
  prune_replies t;
  let count tomb _ cell n =
    if !cell != tomb && Ivar.is_full !cell then n + 1 else n
  in
  Expiring.fold (count Server_state.lvi_tombstone) t.reply_cache 0
  + Expiring.fold (count Server_state.exec_tombstone) t.exec_replies 0

let inject_mutation (t : t) m = t.mutation <- m

let on_stage (t : t) hook = t.stage_hook <- hook

let restart_recover = Server_recovery.restart_recover

let raft_cluster (t : t) =
  match t.repl with None -> None | Some { cluster; _ } -> Some cluster

let stop (t : t) =
  match t.repl with
  | None -> ()
  | Some { cluster; _ } -> RaftLocks.stop cluster

(* --- Sharded topology ------------------------------------------------ *)

let connect_shards = Server_coordinator.connect_shards
let shard_id = Server_coordinator.shard_id
let cross_states = Server_coordinator.cross_states
