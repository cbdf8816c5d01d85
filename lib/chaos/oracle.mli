(** Invariant oracle: judges a deployment after a chaos run.

    Every check runs outside the engine on a finished (quiescent)
    deployment, inspecting state through latency-free accessors — the
    oracle never perturbs the run it is judging. *)

type violation = { inv : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type effect_spec = {
  e_service : string;  (** External-service name. *)
  e_issued : int;
      (** Client-visible invocations that may have called the service. *)
  e_completed : int;
      (** Invocations known to have called it and returned success. *)
}

val linearizable :
  ?init:(string * Dval.t) list -> Radical.Framework.t -> violation list
(** The recorded history ({!Radical.Framework.record_history} must have
    been on) admits a legal total order. *)

val drained : Radical.Framework.t -> violation list
(** No pending write intents and no held locks survive quiescence, at
    any shard of the deployment. *)

val cross_atomic : Radical.Framework.t -> violation list
(** Cross-shard atomicity ({!Radical.Server.cross_states}): every
    coordinated execution reached the same terminal decision at every
    shard that prepared a slice for it — no [`Prepared] survivor at
    quiescence, and never a [`Committed]/[`Aborted] mix. Trivially
    empty on one-shard deployments. *)

val caches_coherent : Radical.Framework.t -> violation list
(** No near-user cache entry is newer than primary storage, and entries
    at the primary's version hold the primary's value — the state a
    repaired cache must converge back to. *)

val effects_exactly_once :
  Radical.Framework.t -> effect_spec list -> violation list
(** For each spec: completed ≤ handler executions ≤ issued — a duplicate
    handler run means an idempotency-key breach; fewer runs than
    completed invocations means an effect was claimed but never made. *)

val check :
  ?init:(string * Dval.t) list ->
  ?effects:effect_spec list ->
  Radical.Framework.t ->
  violation list
(** All of the above, concatenated (empty list = all invariants hold). *)
