type t = { name : string; doc : string; run : unit -> Runner.measurement list }

let target name doc run = { name; doc; run }

let paper ~scale =
  (* Figures 4-6 render three views of one data set: collect it once,
     on first use. *)
  let eval = lazy (Figures.collect_eval ~scale ()) in
  [
    target "fig1" "Figure 1: central vs geo-replicated vs local-ideal latency"
      (fun () -> Figures.fig1 ~scale ());
    target "table1" "Table 1: function catalog and measured execution times"
      Figures.table1;
    target "table2" "Table 2: storage ping RTT from each location to VA"
      Figures.table2;
    target "fig4" "Figure 4: end-to-end latency per application" (fun () ->
        Figures.fig4 (Lazy.force eval));
    target "fig5" "Figure 5: latency per deployment location" (fun () ->
        Figures.fig5 (Lazy.force eval));
    target "fig6" "Figure 6: latency per function" (fun () ->
        Figures.fig6 (Lazy.force eval));
    target "repl" "§5.6: replicated LVI server, added latency vs locks"
      Figures.replication;
    target "cost" "§5.7: monthly cost, baseline vs Radical" Figures.cost;
    target "sensitivity" "§5.5: latency benefit vs handler execution time"
      Figures.sensitivity;
    target "skew" "§5.3: validation success vs workload zipf skew"
      Figures.skew;
    target "throughput" "§5.3: completed requests in a fixed window"
      Figures.throughput;
    target "bootstrap" "§3.2: speculative-path rate from cold caches"
      Figures.bootstrap;
    target "ablation" "overlap, cache and per-access coordination ablations"
      (fun () -> Figures.ablation ~scale ());
    target "phases" "per-phase latency breakdown of the traced social app"
      (fun () -> Figures.phases ~scale ());
  ]

let features ~scale =
  [
    target "batch" "group commit / lock flush / admission load sweep"
      (fun () -> Sweep.run (Sweeps.batch ~scale));
    target "propagate" "cache-update propagation: off, window sweep, inval"
      (fun () -> Sweep.run (Sweeps.propagate ~scale));
    target "lease" "read leases: off, on (revocation), on (expiry wait)"
      (fun () -> Sweep.run (Sweeps.lease ~scale));
    target "shard" "shard scaling and cross-shard commit sweep" (fun () ->
        Sweep.run (Sweeps.shard ~scale));
  ]
