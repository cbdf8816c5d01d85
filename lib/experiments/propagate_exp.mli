(** Cache-update propagation experiment ([bench/main.exe propagate]).

    Multi-site workload over a small pool of shared walls (30% posts,
    70% reads from five user sites). A post from one site leaves every
    other site's cached copy stale; the variants differ only in the
    server's {!Radical.Server.propagation} config:

    - [off] — the seed behaviour: staleness is repaired only by each
      site's own mismatches;
    - [w=0ms] / [w=2ms] / [w=10ms] — committed writes fan out to every
      subscribed site, coalesced per destination for the given Nagle
      window;
    - [inval] — 2 ms window, but receivers evict instead of install.

    Prints one row per variant (speculation-success rate, median/p99
    latency, backup-path count, propagation message/record/install
    counts, records per message, median commit-to-install freshness
    lag) and the acceptance verdict: with a 2 ms window, speculation
    success must be strictly higher and median latency strictly lower
    than with propagation off. *)

val run : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** [scale] multiplies the per-client request count (bench scale 5,
    as [make check] runs it). *)
