(** The analyzer evaluation: what does the residual-program optimizer
    save, and what does the read-only LVI fast path buy?

    Two parts, printed as tables:

    - {b predict cost}: every catalog function's [f^rw] is run on a
      stream of generated requests, twice — the raw [Derive] residual
      vs. the {!Analyzer.Optimize} one — counting cache fetches and
      charged compute per request, plus wall time for the whole sweep.
    - {b fast path}: the forum bundle under the full framework with the
      read-only fast path on vs. off, singleton and Raft-replicated,
      reporting median/p99 latency and the speculative-path rate. *)

val run : ?scale:float -> unit -> unit
(** Both parts at seed 42. *)
