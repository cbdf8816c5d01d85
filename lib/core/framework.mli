(** Top-level deployment of a Radical application (§3.1, Figure 2).

    Wires together: a primary versioned store in the near-storage
    location, the LVI server beside it, and a (cache, runtime) pair per
    near-user location. Functions are registered through the full
    toolchain (compile → determinism validation → derive f^rw); seed
    data loads into the primary and — warm-start — into each cache. *)

type config = {
  locations : Net.Location.t list; (** Near-user deployment locations. *)
  server : Server.config;
  sharding : Shard.Directory.strategy;
      (** Partitions the primary key space across N independent LVI
          servers (one per shard of the directory, each with its own
          locks, intents, idempotency table and — in replicated mode —
          Raft cluster) wired together for cross-shard atomic commit;
          every runtime routes by key shape through a shared
          {!Shard.Router}. The default [Hash {shards = 1}] is the
          paper's single LVI server: one shard hashes no key and runs
          no cross-shard round. *)
  overlap : bool; (** Disable to ablate speculation/LVI overlap. *)
  ro_fast : bool;
      (** Enable the read-only LVI fast path for functions the static
          analysis proves write-free (default). Disable as an ablation:
          every request then takes the full locked path. *)
  fu_window : float;
      (** Followup-coalescing window per runtime in virtual ms
          ({!Runtime.config.fu_window}); 0 (default) disables. *)
  fu_piggyback : bool;
      (** Piggyback buffered followups on the next outgoing LVI request
          ({!Runtime.config.fu_piggyback}); off by default. *)
  warm_caches : bool;
      (** Start every near-user cache warm (the paper's persistent
          caches): each site gets its own {!Cache.copy} of one table
          holding the primary's (value, version) record of every seed
          key. [false] starts every cache empty and exercises gradual
          bootstrap. *)
  cache_latency : float;
      (** Per-access latency of the near-user cache. The default 6.0 ms
          models the paper's DynamoDB-as-cache evaluation setup (§5.2);
          lower it to model ScyllaDB or in-memory caches (§5.7). *)
}

val default_config : config
(** The paper's evaluation setup: the five user locations, one
    singleton server in VA (a one-shard directory), warm caches. *)

type t

val create :
  ?config:config ->
  ?schema:Fdsl.Typecheck.schema ->
  ?manual:(Fdsl.Ast.func * Fdsl.Ast.func) list ->
  ?tracer:Metrics.Tracer.t ->
  net:Net.Transport.t ->
  funcs:Fdsl.Ast.func list ->
  data:(string * Dval.t) list ->
  unit ->
  t
(** Must run inside the engine. Raises [Invalid_argument] if any
    function fails determinism validation (unanalyzable functions are
    fine — they fall back to near-storage execution), or fails the
    gradual typecheck when a storage [schema] is supplied.

    [manual] pairs a function (which must also appear in [funcs]) with a
    developer-written [f^rw]; those functions are registered through
    {!Registry.register_manual} instead of the automatic analyzer —
    the §7 escape hatch for sources the symbolic execution rejects.

    An enabled [tracer] (default noop) is shared by every runtime, the
    LVI server and the transport: each invocation produces one span
    tree with runtime phases, server phases attached by exec-id, wire
    times per service label, and Raft submit latencies in replicated
    mode. *)

val invoke : t -> from:Net.Location.t -> string -> Dval.t list -> Runtime.outcome

val runtime : t -> Net.Location.t -> Runtime.t

val locations : t -> Net.Location.t list
(** The near-user sites of this deployment, in configuration order. *)

val net : t -> Net.Transport.t
(** The transport the deployment was created on. *)

val server : t -> Server.t
(** Shard 0 — the sole server of a one-shard deployment. *)

val servers : t -> Server.t list
(** Every LVI server, ascending by shard id.
    Aggregate server statistics — and quiescence checks like
    [locks_held] / [pending_intents] — must sum over all of them. *)

val directory : t -> Shard.Directory.t
(** The shard directory. *)

val primary : t -> Store.Kv.t

val registry : t -> Registry.t

val register_external :
  t -> name:string -> ?latency:float -> (Dval.t -> Dval.t) -> unit
(** Register an external service (§3.5) available to every execution
    path; calls are idempotency-keyed per execution so a function
    running twice invokes the provider at most once. *)

val external_services : t -> Extsvc.t

val record_history : t -> unit
(** Start recording every invocation (all sites) for linearizability
    checking. *)

val history : t -> Lincheck.op list
(** Recorded operations, oldest first. *)

val stop : t -> unit
(** Tear down background machinery (replicated server's Raft cluster). *)
