(** Reproductions of every table and figure in the paper's evaluation,
    printed as ASCII tables/bar charts.

    [scale] multiplies the default request volume (2,000 requests per
    deployment at [scale = 1.0]); the paper used 10,000 ([scale = 5.0]).
    All entry points print to stdout and return a list of
    (metric-name, measured-value) pairs so callers (tests,
    EXPERIMENTS.md generation) can assert on the shape. *)

val fig1 : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** Figure 1: centralized vs geo-replicated vs local-ideal latency of
    the simple app, per location. *)

val table1 : ?seed:int -> unit -> Runner.measurement list
(** Table 1: per-function writes / analyzability / measured median
    execution time vs the paper's, and workload share. *)

val table2 : ?seed:int -> unit -> Runner.measurement list
(** Table 2: measured storage-ping RTT from each location to the
    primary in VA. *)

type eval_data

val collect_eval : ?scale:float -> ?seed:int -> unit -> eval_data
(** Run the three applications on baseline / Radical / ideal once;
    Figures 4–6 render different views of this data set. *)

val fig4 : eval_data -> Runner.measurement list
(** Figure 4: end-to-end median+p99 per application; improvement over
    baseline; share of the maximum possible improvement; validation
    success rate. *)

val fig5 : eval_data -> Runner.measurement list
(** Figure 5: per-location median+p99 per application. *)

val fig6 : eval_data -> Runner.measurement list
(** Figure 6: per-function median+p99, Radical vs baseline. *)

val replication : ?seed:int -> unit -> Runner.measurement list
(** §5.6: added LVI-processing latency of the Raft-replicated server as
    a function of the number of locks, against the paper's
    3 + 2.3·L ms model. *)

val cost : unit -> Runner.measurement list
(** §5.7: infrastructure and at-scale cost, baseline vs Radical. *)

val sensitivity : ?seed:int -> unit -> Runner.measurement list
(** §5.5: sweep a synthetic handler's execution time and report the
    latency benefit over the baseline — locating the ~20 ms break-even
    and the saturation at [lat_nu<->ns]. *)

val bootstrap : ?seed:int -> unit -> Runner.measurement list
(** Â§3.2: start every cache empty and track the speculative-path rate
    over time â gradual bootstrap through mismatch repairs. *)

val skew : ?seed:int -> unit -> Runner.measurement list
(** §5.3: sweep the social workload's zipf parameter — higher skew
    concentrates writes on hot keys, stressing the locking scheme and
    lowering validation success. *)

val throughput : ?seed:int -> unit -> Runner.measurement list
(** Â§5.3's footnote: Radical completes at least as many requests as the
    baseline in a fixed window â the singleton LVI server is not a
    bottleneck at evaluation load. *)

val ablation : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** Design ablations: speculation overlap on/off, the single LVI request
    vs per-access coordination (naive edge), vs baseline and ideal. *)

val phases : ?scale:float -> ?seed:int -> unit -> Runner.measurement list
(** Per-phase latency breakdown: the social app under Radical with a
    request tracer enabled — a table of phase histograms per request
    path (Speculative / Backup / Fallback) plus the raw JSON document
    from {!Metrics.Tracer.phases_json}. *)
