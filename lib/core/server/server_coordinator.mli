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
    when the request stays on this shard. A one-shard directory hashes
    no key. *)

val handle_shard_prepare :
  Server_state.t -> Proto.shard_prepare -> Proto.shard_vote
(** Participant side of one prepare round. On [Shard_prepared] and
    [Shard_stale] the slice's locks are HELD; only [Shard_busy] holds
    nothing. Safe against delayed, reordered or duplicated prepares. *)

val conclude_commit :
  Server_state.t ->
  exec_id:string ->
  from:Net.Location.t option ->
  parts:(int * Server_state.slice) list ->
  Proto.update list option ->
  unit
(** Conclude a cross-shard commit at the coordinator, for the followup
    and for deterministic re-execution alike. [Some records]: this
    caller concluded the intent — count the commit and send every
    touched peer a retried-until-acked decision carrying its own slice
    of [records]. [None]: another party did. Either way the
    coordinator's own slice retires. [from] is the site excluded from
    cache-update propagation. *)

val handle_lvi_cross :
  Server_state.t ->
  Proto.lvi_request ->
  root:Metrics.Tracer.span ->
  arm_intent:(Proto.lvi_request -> unit) ->
  (int * Server_state.slice) list ->
  Proto.lvi_response
(** Coordinator side of a cross-shard LVI request: run the prepare
    rounds, merge the votes, and either install the coordinator intent
    ([arm_intent] starts the recovery layer's intent timer) or abort
    everywhere and serve the client through backup execution. *)

val connect_shards : Server_state.t -> Server_state.t list -> unit
(** Point this server at its peer shards' [shard_prepare] /
    [shard_decide] services (self is filtered out). A peer's decide
    service concludes rounds <= sd_round at that shard: it releases the
    slice, settles its intent, records the outcome and publishes its
    own records, idempotently. *)

val shard_id : Server_state.t -> int

val cross_states :
  Server_state.t ->
  (string * [ `Prepared | `Committed | `Aborted ]) list
