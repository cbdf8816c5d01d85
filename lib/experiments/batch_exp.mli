(** Batching load sweep ([bench/main.exe batch]).

    Open-loop Poisson load over a synthetic mixed workload (two-account
    payments, wall posts, read-only wall reads) against the LVI server
    with every combination of batching knobs that matters:

    - [unbatched] — the seed behaviour, one Raft entry per lock record;
    - [group-commit] — the leader coalesces queued proposals into one
      log entry per replication round;
    - [gc+lock-flush] — plus per-request [submit_batch] and the 2 ms
      Nagle flusher for concurrent requests' lock records;
    - [all-on] — plus conflict-aware admission and followup coalescing
      / piggybacking on the near-user side.

    Replicated cells model a 1 ms durable append per log {e entry}
    (serialized per node — the fsync queue), which is the resource
    group commit amortizes; without it the simulated append is free and
    batching has nothing to win. Singleton cells check the knobs cost
    nothing when there is no Raft underneath.

    Prints one table per deployment mode (median / p99 / achieved
    throughput / commands-per-entry / append-queue delay per offered
    rate), peak sustainable throughput per variant, and the acceptance
    verdict: replicated median latency and peak sustainable throughput
    must both be strictly better with group commit than unbatched. *)

val run : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** [scale] multiplies the 250 ms per-cell load window (bench scale 5,
    as [make check] runs it). *)
