(** Read-lease experiment ([bench/main.exe lease]).

    Read-heavy workload (95% reads, 5% updates — {!Workload.Mix.read_heavy})
    over a pool of zipf(0.99) items from five user sites. The variants
    differ only in the server's {!Radical.Server.leases} config:

    - [off] — the seed behaviour: every read-only invocation pays one
      LVI round trip on the [ro_fast] path;
    - [on] — validated reads earn per-key leases and later reads of
      covered keys are served entirely at the site; writers revoke
      outstanding grants (expiry wait as the fallback);
    - [on/expiry] — leases without revocation: writers always wait out
      the lease term plus ε, trading write latency for zero revocation
      traffic.

    Prints one row per variant (read-only median/p99, write median, mix
    median, lease-local count, grant/revoke/expiry-wait/blocked-write
    counters) and the acceptance verdict: with leases on, the read-only
    median must drop by at least 40% versus off, with zero errors in
    both cells. *)

val run : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** [scale] multiplies the per-client request count (bench scale 5,
    as [make check] runs it). *)
