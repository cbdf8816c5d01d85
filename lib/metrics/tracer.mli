(** Request-scoped tracing with per-phase latency aggregation.

    A tracer collects one {!Span} tree per request (rooted at the
    invocation, with one child span per protocol phase) and, on
    {!finalize}, folds every closed span into labeled histograms keyed
    by [(function, phase, path)] — so the end-to-end latency of each
    request path (Speculative / Backup / Fallback) can be attributed to
    lock wait vs. validation vs. wire time vs. re-execution.

    The disabled tracer ({!noop}) is free: every operation returns
    immediately without touching the virtual clock or allocating, so
    instrumented code paths cost nothing when tracing is off. Span
    handles are [Span.t option] — [None] under {!noop} — and child
    operations on a [None] parent are no-ops, which keeps call sites
    branch-free.

    Besides spans, a tracer aggregates transport-level wire times and
    fault outcomes per message label, and Raft submit-to-commit
    latencies for persisted lock records. *)

type t

type span = Span.t option

val noop : t
(** The disabled tracer: all operations are no-ops. *)

val create : unit -> t
(** An enabled tracer. Must only be exercised inside a running engine
    (span timestamps come from {!Sim.Engine.now}); the aggregate
    [record_*] calls are engine-free. *)

val enabled : t -> bool

val none : span

(** {1 Spans} *)

val root : t -> string -> span
(** Open a request root span ([None] when disabled). *)

val child : t -> parent:span -> string -> span
(** Open a phase span under [parent]; [None] if the parent is [None]. *)

val stop : span -> unit
(** Close a span at the current virtual time. Idempotent. *)

val annotate : span -> string -> string -> unit

val with_phase : t -> parent:span -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a phase span (closed even on exceptions). Calls
    the thunk directly when the parent is [None]. *)

(** {1 Cross-component lookup}

    The near-user runtime registers each request's root span under its
    execution id; the LVI server (same simulated deployment, different
    component) retrieves it to attach server-side phases to the same
    tree. *)

val register_exec : t -> exec_id:string -> span -> unit

val exec_span : t -> exec_id:string -> span

val release_exec : t -> exec_id:string -> unit

val finalize : t -> fn:string -> path:string -> span -> unit
(** Close the root, record every closed span of its tree into the
    [(fn, phase, path)] histograms (the root itself under phase
    ["total"]), and retain the tree for {!slowest}. Spans still open
    (e.g. an abandoned speculation) are kept in the tree but not
    aggregated. *)

(** {1 Transport / consensus aggregates} *)

val record_wire : t -> label:string -> float -> unit
(** One-way delay of a delivered message, keyed by service label. *)

val record_fault : t -> label:string -> outcome:string -> unit
(** Count a fault-hook outcome (["drop"], ["delay"], ["late_reply"],
    ["expired"]). *)

val record_raft : t -> float -> unit
(** Submit-to-commit latency of one replicated lock record. *)

val record_batch : t -> label:string -> int -> unit
(** Size of one flushed batch, keyed by batching site (["raft_entry"],
    ["lock_persist"], ["followup"], …). *)

val record_queue : t -> label:string -> float -> unit
(** Queueing delay paid by a batched element before its batch flushed
    (or by a request waiting in the admission queue), keyed by site. *)

val record_shard : t -> shard:int -> parts:int -> unit
(** Count one LVI request handled by [shard]; [parts] is the number of
    shards its key set touches (> 1 marks it cross-shard and feeds the
    per-shard cross-shard-rate readout). *)

(** {1 Readout} *)

val trace_count : t -> int

val phase_stats : t -> ((string * string * string) * Stats.t) list
(** Histograms keyed by [(fn, phase, path)], sorted. *)

val wire_stats : t -> (string * Stats.t) list

val fault_counts : t -> ((string * string) * int) list

val raft_stats : t -> Stats.t option

val batch_stats : t -> (string * Stats.t) list
(** Batch-size histograms per batching site, sorted by label. *)

val queue_stats : t -> (string * Stats.t) list
(** Queue-delay histograms per batching/admission site, sorted. *)

val shard_stats : t -> (int * (int * int)) list
(** Per-shard load, sorted by shard id: [(shard, (requests,
    cross_shard_requests))]. Empty when disabled or unsharded. *)

val slowest : ?k:int -> t -> Span.t list
(** The [k] slowest finalized request trees, slowest first. *)

val phases_json : t -> string
(** The per-phase breakdown as a JSON document: per-path phase
    histograms (aggregated over functions), the full
    [(fn, phase, path)] breakdown, wire-time histograms per label,
    fault counts, batch-size and queue-delay histograms per batching
    site, and Raft submit latency. ["{}"] when disabled. *)
