(** Chaos campaign bundle: the experiment-suite entry point for
    [lib/chaos] ([bench/main.exe chaos]).

    Sweeps the default fault-plan templates over the social and forum
    applications, each in singleton and Raft-replicated deployments,
    expecting zero invariant violations; then demonstrates that the
    oracle has teeth by injecting a deliberate protocol mutation
    (skipped intent re-execution), catching it, and shrinking the
    failing plan to a minimal reproduction. *)

type report = { r_label : string; r_summary : Chaos.Campaign.summary }

val campaign :
  ?seeds:int -> ?progress:bool -> ?deployment:Radical.Deployment.feature list ->
  unit -> report list
(** [seeds] per (app × mode) cell, default 50 — 200 seeded sweeps in
    total over the 4-cell grid. Every cell deploys [deployment] (default
    the paper's), once on a singleton and once on a Raft-replicated
    server, and is labelled [app/<deployment>]. Each feature has a
    chaos template that attacks it: propagation-chaos loses, duplicates
    and delays cache_update messages; lease-chaos does the same to
    lease_revoke messages and adds cache wipes and late cache updates;
    shard-chaos attacks the cross-shard commit under the
    cross-atomicity oracle. The oracle expects zero violations in every
    combination. *)

val demo_mutation : ?seed:int -> unit -> Chaos.Plan.t * Chaos.Plan.t
(** Inject [Skip_reexecution], run a deliberately noisy plan, and
    return [(original, shrunk)] — the shrunk plan still reproduces a
    violation and is 1-minimal. *)

val run :
  ?seeds:int -> ?deployment:Radical.Deployment.feature list -> unit -> int
(** Print campaign reports and the mutation demonstration; returns the
    number of genuine violations (0 expected — mutation-demo failures
    are intentional and not counted). *)
