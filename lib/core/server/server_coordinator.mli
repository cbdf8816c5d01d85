(** Cross-shard atomic commit layer of the LVI server engine.

    Coordinator and participant sides of the sharded prepare/decide
    protocol: slice partitioning, the non-blocking try round with its
    ordered blocking fallback, retried-until-acked decisions, and the
    sharded topology wiring. Protocol timing is fixed: 50 ms try
    prepares; 4 s blocking prepares, 4 attempts; 200 ms decisions
    retried 50 times with a 100 ms backoff. *)

val cross_parts :
  Server_state.t ->
  Proto.lvi_request ->
  (int * Server_state.slice) list option
(** The request's key set partitioned by owning shard, ascending; [None]
    when the request stays on this (or a single) shard. *)

val lock_list_of_slice :
  Server_state.slice -> (string * Store.Locks.mode) list

val handle_shard_prepare :
  Server_state.t -> Proto.shard_prepare -> Proto.shard_vote
(** Participant side of one prepare round. On [Shard_prepared] and
    [Shard_stale] the slice's locks are HELD; only [Shard_busy] holds
    nothing. Safe against delayed, reordered or duplicated prepares. *)

val handle_shard_decide : Server_state.t -> Proto.shard_decision -> unit
(** Conclude rounds <= sd_round at this shard: release the slice, settle
    its intent, record the outcome, publish its own records.
    Idempotent. *)

val broadcast_decisions :
  Server_state.t ->
  Server_state.sharding ->
  exec_id:string ->
  round:int ->
  commit:bool ->
  from:Net.Location.t option ->
  targets:int list ->
  Proto.update list ->
  unit
(** Conclude a round at every peer in [targets] (self is skipped), from
    spawned fibers, retrying each decision until acknowledged. *)

val conclude_local :
  Server_state.t ->
  Server_state.sharding ->
  exec_id:string ->
  round:int ->
  commit:bool ->
  from:Net.Location.t option ->
  Proto.update list ->
  unit

val handle_lvi_cross :
  Server_state.t ->
  Server_state.sharding ->
  Proto.lvi_request ->
  root:Metrics.Tracer.span ->
  arm_intent:(Proto.lvi_request -> unit) ->
  (int * Server_state.slice) list ->
  Proto.lvi_response
(** Coordinator side of a cross-shard LVI request: run the prepare
    rounds, merge the votes, and either install the coordinator intent
    ([arm_intent] starts the recovery layer's intent timer) or abort
    everywhere and serve the client through backup execution. *)

val enable_sharding :
  Server_state.t -> id:int -> directory:Shard.Directory.t -> unit

val connect_shards : Server_state.t -> Server_state.t list -> unit

val shard_id : Server_state.t -> int option

val cross_states :
  Server_state.t ->
  (string * [ `Prepared | `Committed | `Aborted ]) list
