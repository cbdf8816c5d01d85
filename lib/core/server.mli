(** The LVI server (§3.2, §3.6, §5.6) running in the near-storage
    location.

    Handles LVI requests — lock, validate, set up write intents — plus
    write followups, intent-timer expiry with deterministic re-execution
    (§3.4), and direct execution requests for unanalyzable functions.

    Two deployments:
    - {b Singleton} (the paper's main evaluation): the lock table lives
      in server memory, costing no extra latency.
    - {b Replicated} (§5.6): every lock record and an idempotency key
      per invocation are persisted through a three-node Raft cluster
      (the etcd role), adding ≈ [3 + 2.3·L] ms to LVI processing; the
      idempotency key guarantees at-most-once near-storage execution. *)

include module type of struct
  include Server_config
end
(** Deployment modes, batching / propagation / lease presets and the
    server config: documented in {!Server_config}. *)

type t

type stats = {
  requests : int;
  validated : int; (** Requests whose validation step succeeded. *)
  mismatched : int;
  followups_applied : int;
  followups_discarded : int; (** Late followups (§3.6 case 3). *)
  reexecutions : int; (** Intent timers that fired and replayed. *)
  direct_executions : int;
  ro_fast : int;
      (** Requests answered by the read-only validate-only fast path
          (subset of [validated]): the client's analysis hint checked out
          against the server's own registry, every read key was fresh and
          write-unlocked at one sampling instant, so the reply carries no
          locks, no write intent and no idempotency record. *)
  admission_waits : int;
      (** Requests that queued in conflict-aware admission (0 unless
          [batching.admission]). *)
  persist_flushes : int;
      (** Batched lock-persist rounds flushed to Raft (0 unless
          [batching.persist_window] > 0). *)
  prop_records : int;
      (** Cache-update records enqueued for propagation, summed over
          destinations (0 unless [propagation.enabled]). *)
  prop_batches : int;
      (** Coalesced [cache_update] messages actually sent. *)
  dup_deliveries : int;
      (** Duplicated LVI / direct-exec deliveries answered from the
          reply cache instead of being re-processed. *)
  cross_requests : int;
      (** LVI requests this server coordinated through the cross-shard
          prepare/commit round (0 on one shard). *)
  cross_commits : int;  (** ... that committed on every touched shard. *)
  cross_aborts : int;
      (** ... that aborted (validation failure somewhere, or prepare
          retries exhausted) — the write set was applied nowhere,
          though a backup execution may still have served the client. *)
  shard_prepares : int;
      (** Participant slices this server prepared for coordinators
          running elsewhere. *)
  lease_grants : int;
      (** Read leases issued across reply-path and propagation
          piggyback (0 unless [leases.enabled]). *)
  lease_revokes : int;
      (** Revocation RPCs fired at holding sites from the write path. *)
  lease_expiry_waits : int;
      (** Writes that waited out a lease expiry plus ε (revocation off,
          timed out, or no channel to the holder). *)
  lease_blocked_writes : int;
      (** Writes that found outstanding grants on their write set and
          settled them before validating. *)
}

val create :
  ?extsvc:Extsvc.t ->
  ?tracer:Metrics.Tracer.t ->
  net:Net.Transport.t ->
  registry:Registry.t ->
  kv:Store.Kv.t ->
  shard:int ->
  directory:Shard.Directory.t ->
  config ->
  t
(** Shard [shard] of [directory]; the paper's single LVI server is
    shard 0 of a one-shard directory. Raises [Invalid_argument] if
    [shard] is out of range.

    [extsvc] is the external-service registry used by backup execution
    and deterministic re-execution (§3.5); defaults to an empty one.
    With a [tracer] (default noop), [handle_lvi] attaches [lock_wait],
    [validate], [backup_exec] and [raft_persist] phase spans to the
    request's trace, and replicated-mode lock records report their Raft
    submit-to-commit latency. *)

val lvi_service : t -> (Proto.lvi_request, Proto.lvi_response) Net.Transport.service
(** Built from the server's state on each call, like {!followup_service}
    and {!exec_service}: the same handler at the same location. *)

val followup_service : t -> (Proto.followup list, unit) Net.Transport.service
(** Followups arrive as a list: one message per coalescing window from
    each runtime, singleton lists when coalescing is off. *)

val exec_service : t -> (Proto.exec_request, Proto.exec_result) Net.Transport.service

val subscribe : t -> (Proto.cache_update, unit) Net.Transport.service -> unit
(** Register a near-user cache-update service as a propagation
    destination. After a followup, deterministic re-execution or
    mismatch repair commits writes to primary, the server coalesces the
    committed (key, value, version) records per destination for
    [propagation.prop_window] virtual ms and posts them as one
    {!Proto.cache_update} message — excluding the origin site, which
    installed its own writes at [Validated] time. A runtime colocated
    with the server subscribes like any other: its cache is a separate
    store that goes stale the same way. No-op when propagation is
    disabled. *)

val register_lease_site : t -> (Proto.lease_revoke, unit) Net.Transport.service -> unit
(** Register a near-user runtime's lease-revocation service, making its
    site eligible for read-lease grants. Grants then piggyback on the
    site's validated read replies and cache-update flushes; the write
    path revokes through this channel. Only sites registered here are
    ever granted to — a site without a revocation channel could wedge
    writers into systematic expiry waits. No-op when [leases] is off or
    the service is at the server's own location. *)

val stats : t -> stats

val locks_held : t -> int
(** Owners currently holding locks — 0 at quiescence. *)

val outstanding_leases : t -> int
(** Unexpired read-lease grants currently recorded — settles and
    expiries prune it; purely informational. *)

val pending_intents : t -> int

val dedup_entries : t -> int
(** Entries in the LVI and direct-exec reply caches, after forgetting
    those whose message lifetime has passed. Bounded by the request rate
    times {!Net.Transport.max_message_age} (plus in-flight requests), and
    0 after a quiet period longer than that lifetime. *)

val held_replies : t -> int
(** Entries of those caches that still hold a response: filled, and not
    yet acknowledged by the client's next request to this server. The
    rest are in flight or tombstones that keep only their key and
    deadline (DESIGN.md §16.2). *)

val restart_recover : t -> unit
(** Simulate an LVI-server restart: in-memory intent timers are gone,
    but the intent records (with the function and inputs needed for
    re-execution) and the disk-persisted lock table survive (§3.4, §4).
    Every orphaned pending intent is resolved by deterministic
    re-execution and its locks released; followups arriving later are
    discarded as duplicates.

    The instant need not be quiescent. A followup in flight at restart
    time finds its intent completed on arrival and is discarded — the
    write was applied exactly once, by the re-execution. An in-flight
    LVI request that has not yet installed an intent is untouched: its
    handler fiber still owns its locks and releases them normally.
    Covered by the [test_chaos] restart suite. *)

val inject_mutation : t -> protocol_mutation option -> unit
(** Enable/disable a deliberate protocol bug (chaos testing only). *)

val on_stage : t -> (string -> unit) -> unit
(** Attach a per-stage observation hook to the LVI request path: the
    callback fires with the stage name ([admit], [lock], [settle],
    [validate], [ro_validate]) just before that stage of an LVI request
    runs. Chaos fault injection and stage-level instrumentation attach
    here; the default hook does nothing and costs nothing. *)

val raft_cluster : t -> Raft_locks.cluster option
(** The replicated server's lock cluster ([None] for a singleton) —
    exposed so tests can crash and restart its nodes. *)

(** {1 Shards}

    Every deployment is a sharded one; the paper's single server is the
    one-shard case. N independent LVI servers — each with its own lock table, intents,
    idempotency table and (optionally) Raft cluster — partition the
    primary key space by a {!Shard.Directory}. A request whose key set
    lives on one shard runs the unchanged one-round-trip protocol
    there; a cross-shard request is coordinated by the minimum touched
    shard: it prepares every other shard's slice (lock + validate +
    intent) in parallel, commits iff all validated, and aborts —
    releasing everything — otherwise. Deterministic re-execution of an
    orphaned cross-shard intent is anchored at the coordinator, which
    rebroadcasts the commit decision until every participant acks. *)

val connect_shards : t -> t list -> unit
(** Point this server at its peer shards' [shard_prepare] /
    [shard_decide] participant services (self is filtered out). Call
    once every shard's server exists, before traffic. *)

val shard_id : t -> int

val cross_states : t -> (string * [ `Prepared | `Committed | `Aborted ]) list
(** Terminal-state log of every cross-shard exec this shard
    participated in or coordinated, for the chaos atomicity oracle: at
    quiescence no exec may be [`Prepared], and an exec's state must
    agree across every shard that logged it. *)

val stop : t -> unit
(** Shut down the Raft cluster of a replicated server (no-op for a
    singleton). Required for the simulation to reach quiescence. *)
