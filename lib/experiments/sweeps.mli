(** The feature experiments as {!Sweep} values, one per
    [bench/main.exe] target. Each takes the bench scale, which
    multiplies an open-loop cell's 250 ms window or a closed-loop
    client's 30 requests (at least 10); [make check] runs scale 5. *)

val batch : scale:float -> (string * string * float) Sweep.t
(** Batching load sweep, keyed by (deployment mode, variant, offered
    rate). Open-loop load over two-account payments, wall posts and
    read-only wall reads. Replicated cells model a 1 ms durable append
    per Raft log {e entry}, the resource group commit amortizes; they
    compare [unbatched], [group-commit] (one log entry per replication
    round), [gc+lock-flush] (plus the 2 ms lock-record flusher) and
    [all-on] (plus conflict-aware admission and followup coalescing).
    Singleton cells check that the knobs cost nothing without Raft.
    Acceptance: at the top rate group commit has the lower replicated
    median, and the higher peak sustainable throughput. *)

val propagate : scale:float -> string Sweep.t
(** Cache-update propagation, keyed by variant. 30% posts and 70% reads
    of a few walls shared by the five sites; the variants differ in
    {!Radical.Server.propagation}: [off], Nagle windows [w=0ms],
    [w=2ms] and [w=10ms], and [inval] (2 ms, receivers evict instead
    of install). Acceptance: with a 2 ms window, speculation success
    is higher and the median lower than with propagation off. *)

val lease : scale:float -> string Sweep.t
(** Read leases, keyed by variant. 95% reads of zipf(0.99) items and
    5% updates; the variants differ in {!Radical.Server.leases}:
    [off], [on] (writers revoke outstanding grants) and [on/expiry]
    (writers wait out the lease term). Acceptance: leases cut the
    read-only median by at least 40%, with no errors in either cell. *)

val shard : scale:float -> (int * float * float) Sweep.t
(** Shard scaling, keyed by (shards, cross-shard fraction, offered
    rate). Open-loop payments over eight prefix-disjoint key families,
    each shard a replicated lock cluster with a 1 ms append: scaling
    over 1, 2 and 4 shards on the disjoint workload, then 0, 10 and 50%
    cross-shard transfers at 4 shards. Acceptance: the 4-shard peak
    sustainable throughput is at least 3x the 1-shard one, and the
    traced 4-shard disjoint cell shows no [shard_prepare] phase. *)
