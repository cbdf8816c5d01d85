type t = {
  name : string;
  doc : string;
  run : scale:float -> Runner.measurement list;
}

(* Figures 4-6 render three views of one data set: collect it once per
   scale, on first use. *)
let eval =
  let cache = ref None in
  fun scale ->
    match !cache with
    | Some (s, data) when s = scale -> data
    | _ ->
        let data = Figures.collect_eval ~scale () in
        cache := Some (scale, data);
        data

let target name doc run = { name; doc; run }

let paper =
  [
    target "fig1" "Figure 1: central vs geo-replicated vs local-ideal latency"
      (fun ~scale -> Figures.fig1 ~scale ());
    target "table1" "Table 1: function catalog and measured execution times"
      (fun ~scale:_ -> Figures.table1 ());
    target "table2" "Table 2: storage ping RTT from each location to VA"
      (fun ~scale:_ -> Figures.table2 ());
    target "fig4" "Figure 4: end-to-end latency per application"
      (fun ~scale -> Figures.fig4 (eval scale));
    target "fig5" "Figure 5: latency per deployment location"
      (fun ~scale -> Figures.fig5 (eval scale));
    target "fig6" "Figure 6: latency per function"
      (fun ~scale -> Figures.fig6 (eval scale));
    target "repl" "§5.6: replicated LVI server, added latency vs locks"
      (fun ~scale:_ -> Figures.replication ());
    target "cost" "§5.7: monthly cost, baseline vs Radical"
      (fun ~scale:_ -> Figures.cost ());
    target "sensitivity" "§5.5: latency benefit vs handler execution time"
      (fun ~scale:_ -> Figures.sensitivity ());
    target "skew" "§5.3: validation success vs workload zipf skew"
      (fun ~scale:_ -> Figures.skew ());
    target "throughput" "§5.3: completed requests in a fixed window"
      (fun ~scale:_ -> Figures.throughput ());
    target "bootstrap" "§3.2: speculative-path rate from cold caches"
      (fun ~scale:_ -> Figures.bootstrap ());
    target "ablation" "overlap, cache and per-access coordination ablations"
      (fun ~scale -> Figures.ablation ~scale ());
    target "phases" "per-phase latency breakdown of the traced social app"
      (fun ~scale -> Figures.phases ~scale ());
  ]

let features =
  [
    target "batch" "group commit / lock flush / admission load sweep"
      (fun ~scale -> Sweep.run (Sweeps.batch ~scale));
    target "propagate" "cache-update propagation: off, window sweep, inval"
      (fun ~scale -> Sweep.run (Sweeps.propagate ~scale));
    target "lease" "read leases: off, on (revocation), on (expiry wait)"
      (fun ~scale -> Sweep.run (Sweeps.lease ~scale));
    target "shard" "shard scaling and cross-shard commit sweep"
      (fun ~scale -> Sweep.run (Sweeps.shard ~scale));
  ]

let find name = List.find_opt (fun t -> t.name = name) (paper @ features)
