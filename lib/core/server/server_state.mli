(** Shared mutable state of the LVI server engine.

    Internal to the [radical] library: the record is exposed
    transparently so the sibling server_* layers (and their isolation
    tests) can read and update it directly. The public {!Server} module
    re-seals [t] as abstract. *)

module Log : Logs.LOG
(** The server engine's log source ([radical.server]), shared by every
    layer so one `--log server` switch covers the whole engine. *)

type repl = {
  cluster : Raft_locks.cluster;
  idempotency : Store.Idempotency.t;
  flusher : Raft.Kvsm.cmd Batcher.t option;
      (** Cross-request Nagle flusher folding the lock records of
          concurrent requests into one Raft proposal
          (batching.persist_window > 0). *)
}

type 'r reply = 'r Sim.Ivar.t ref
(** A reply-cache entry: a cell holding the reply's ivar, repointed at
    the table's tombstone once the client acknowledges the reply. The
    table and the deadline FIFO bind the cell, never the ivar. *)

type pending = {
  p_req : Proto.lvi_request;
  p_timer : Sim.Timer.t;
  p_created : float;
}

(** One request's slice of the key space owned by one shard. *)
type slice = { sl_reads : (string * int) list; sl_writes : string list }

type cross_state = Cross_prepared | Cross_committed | Cross_aborted

type shard_peer = {
  pe_prepare : (Proto.shard_prepare, Proto.shard_vote) Net.Transport.service;
  pe_decide : (Proto.shard_decision, unit) Net.Transport.service;
}

type sharding = {
  sh_id : int;
  sh_dir : Shard.Directory.t;
  mutable sh_peers : (int * shard_peer) list;
  sh_prepared : (string, int * string * string list) Hashtbl.t;
  sh_preparing : (string, unit) Hashtbl.t;
  sh_decided : (string, int) Hashtbl.t;
  sh_coord_round : (string, int) Hashtbl.t;
  sh_cross : (string, cross_state) Hashtbl.t;
  mutable sh_prepares : int;
}

type t = {
  config : Server_config.config;
  net : Net.Transport.t;
  tracer : Metrics.Tracer.t;
  registry : Registry.t;
  kv : Store.Kv.t;
  extsvc : Extsvc.t;
  locks : Store.Locks.t;
  intents : Store.Intents.t;
  durable_reqs : (string, Proto.lvi_request) Hashtbl.t;
  followup_delay : (string, float) Hashtbl.t;
  repl : repl option;
  admission : Admission.t option;
  pending : (string, pending) Hashtbl.t;
  mutable mutation : Server_config.protocol_mutation option;
  mutable subscribers :
    (Net.Location.t * (Proto.update * float) Batcher.t) list;
  reply_cache : (string, Proto.lvi_response reply) Sim.Expiring.t;
  exec_replies : (string, Proto.exec_result reply) Sim.Expiring.t;
      (** Dedup tables: entries are forgotten once the clock passes
          their fill time plus {!Net.Transport.max_message_age}; an
          acknowledged entry holds the table's tombstone until then. *)
  sharding : sharding;
  lease_tbl : Lease.t;
  mutable lease_peers :
    (Net.Location.t * (Proto.lease_revoke, unit) Net.Transport.service) list;
  mutable stage_hook : string -> unit;
      (** Called by {!Server_lvi_engine} with the step's name
          ([ro_validate], [admit], [lock], [settle], [validate]) just
          before each step of an LVI request runs; chaos fault
          injection and stage-level instrumentation attach here. *)
  mutable owners : int;
  mutable s_requests : int;
  mutable s_validated : int;
  mutable s_mismatched : int;
  mutable s_fu_applied : int;
  mutable s_fu_discarded : int;
  mutable s_reexec : int;
  mutable s_direct : int;
  mutable s_ro_fast : int;
  mutable s_prop_records : int;
  mutable s_dup_deliveries : int;
  mutable s_cross : int;
  mutable s_cross_commits : int;
  mutable s_cross_aborts : int;
  mutable s_lease_grants : int;
  mutable s_lease_revokes : int;
  mutable s_lease_waits : int;
  mutable s_lease_blocked : int;
  mutable lvi_svc :
    (Proto.lvi_request, Proto.lvi_response) Net.Transport.service option;
  mutable fu_svc : (Proto.followup list, unit) Net.Transport.service option;
  mutable exec_svc :
    (Proto.exec_request, Proto.exec_result) Net.Transport.service option;
}

val create :
  ?repl:repl ->
  ?admission:Admission.t ->
  ?tracer:Metrics.Tracer.t ->
  net:Net.Transport.t ->
  registry:Registry.t ->
  kv:Store.Kv.t ->
  extsvc:Extsvc.t ->
  shard:int ->
  directory:Shard.Directory.t ->
  Server_config.config ->
  t
(** Bare state with no transport services wired, as shard [shard] of
    [directory] (an unsharded server is shard 0 of a one-shard
    directory): what [Server.create] starts from, and what isolation
    tests of the extracted layers construct without spinning up the
    full stack. Raises [Invalid_argument] if [shard] is out of range. *)

val expire_reply : (string, 'r reply) Sim.Expiring.t -> string -> 'r reply -> unit
(** [expire_reply tbl id cell], called when [cell]'s ivar is filled:
    forget [id] once {!Net.Transport.max_message_age} has passed, if it
    is still bound to [cell]. *)

val lvi_tombstone : Proto.lvi_response Sim.Ivar.t
val exec_tombstone : Proto.exec_result Sim.Ivar.t
(** The shared filled ivars an acknowledged entry of [reply_cache] and
    [exec_replies] points at. A late duplicate of an acknowledged
    request gets this constant reply, which its client, having finished
    the call, drops as late. *)

val forget_acked : t -> Proto.exec_id list -> unit
(** Point every filled entry of either table whose id is acked at that
    table's tombstone. Unfilled entries and unknown ids are left alone. *)
