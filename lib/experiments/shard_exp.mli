(** Shard scaling sweep ([bench/main.exe shard]).

    Open-loop Poisson load over eight prefix-disjoint key families
    ("f<i>:bal:*") against the sharded LVI service. Each family has a
    statically single-shard payment function — the prefix directory
    pins its key shape to one shard, so the router sends the unchanged
    one-round-trip protocol there — and a transfer function spanning
    two families, which takes the cross-shard prepare/commit path at
    >= 2 shards.

    Every shard runs its own replicated lock cluster with a modeled
    1 ms durable append per log entry, so N shards are N independent
    append devices: the honest resource sharding multiplies.

    Three readouts:
    - shard-count scaling on the fully disjoint workload (1/2/4 shards
      x offered rate), with peak sustainable throughput per count;
    - a cross-shard mix sweep (0 / 10 / 50 % transfers) at 4 shards
      showing what atomic commit costs;
    - a traced disjoint cell asserting no [shard_prepare] phase exists
      in any trace (single-shard functions keep one round trip) and
      printing per-shard load.

    Acceptance: peak sustainable throughput at 4 shards >= 3x the
    1-shard peak, and zero [shard_prepare] phases on the disjoint
    workload. *)

val run : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** [scale] multiplies the 250 ms per-cell load window (bench scale 5,
    as [make check] runs it). *)
