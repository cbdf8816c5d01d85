(* The benchmark's metrics: names, units, clocks, directions and bounds,
   and the order statistics they are computed with. *)

type clock = Virtual | Real

type better = Lower | Higher

type bound =
  | Rel of float (* share of the base median *)
  | Abs of float (* absolute amount *)
  | Unbounded (* per-layer: diagnostic only *)

type def = {
  name : string;
  unit_ : string;
  clock : clock;
  better : better;
  bound : bound;
}

let def ?(clock = Virtual) ?(better = Lower) ?(bound = Unbounded) name unit_ =
  { name; unit_; clock; better; bound }

(* End-to-end, reported per workload on untraced runs. [failover_gap_ms]
   exists on raft-failover only. A bound is the share of the base median
   by which a metric may get worse before a change counts as a
   regression. A virtual bound is at least three times the spread
   (quartile distance over median) measured across ten seeds on the
   workload where the metric is noisiest. The real-clock bounds are wide
   because the machine's own speed moves by about 10% between runs, and
   by more over hours. Ladder rungs are at least a factor of two apart,
   so [max_rps_at_slo]'s 1% means any drop. *)
let end_to_end =
  [
    def "read_mean_ms" "ms" ~bound:(Rel 0.02);
    def "read_p50_ms" "ms" ~bound:(Rel 0.02);
    def "read_p99_ms" "ms" ~bound:(Rel 0.10);
    def "write_mean_ms" "ms" ~bound:(Rel 0.12);
    def "write_p50_ms" "ms" ~bound:(Rel 0.10);
    def "write_p99_ms" "ms" ~bound:(Rel 0.24);
    def "error_rate" "ratio" ~bound:(Abs 0.001);
    def "max_rps_at_slo" "req/s" ~better:Higher ~bound:(Rel 0.01);
    def "failover_gap_ms" "ms" ~bound:(Rel 0.10);
    def "sim_req_per_cpu_s" "req/s" ~clock:Real ~better:Higher ~bound:(Rel 0.24);
    def "peak_heap_mb" "MB" ~clock:Real ~bound:(Rel 0.10);
    def "setup_s" "s" ~clock:Real ~bound:(Rel 0.25);
  ]

let hi name unit_ = def name unit_ ~better:Higher

let real ?(better = Lower) name unit_ = def name unit_ ~clock:Real ~better

(* Per-layer, reported by the traced run. Virtual stage times come from
   the program's tracer; real times from benchmark-side spans around
   public calls. *)
let per_layer =
  [
    def "sim.events_per_req" "count";
    real "sim.events_per_cpu_s" "1/s" ~better:Higher;
    def "sim.live_fibers_peak" "count";
    def "net.msgs_per_req" "count";
    def "net.lvi_wire_p50_ms" "ms";
    def "net.timeouts" "count";
    def "runtime.frw_predict_p50_ms" "ms";
    def "runtime.speculate_p50_ms" "ms";
    def "runtime.followup_post_p50_ms" "ms";
    def "runtime.lvi_rtt_p50_ms" "ms";
    def "runtime.lvi_rtt_p99_ms" "ms";
    def "runtime.cache_repair_p99_ms" "ms";
    hi "runtime.spec_rate" "ratio";
    def "runtime.skipped_spec" "count";
    hi "runtime.local_rate" "ratio";
    hi "runtime.followups_per_msg" "count";
    real "analyzer.derive_ms" "ms";
    real "analyzer.certify_ms" "ms";
    real "fdsl.compile_ms" "ms";
    real "wasm.validate_ms" "ms";
    real "analyzer.predict_us" "us";
    real "wasm.interp_us" "us";
    def "wasm.instrs_per_req" "count";
    hi "cache.hit_rate" "ratio";
    def "cache.lease_refused" "count";
    def "cache.lease_revoked" "count";
    def "server.stage.admit.n" "count";
    def "server.stage.lock.n" "count";
    def "server.stage.settle.n" "count";
    def "server.stage.validate.n" "count";
    def "server.stage.ro_validate.n" "count";
    def "server.lock_wait_p50_ms" "ms";
    def "server.lock_wait_p99_ms" "ms";
    def "server.validate_p50_ms" "ms";
    def "server.backup_exec_p50_ms" "ms";
    hi "server.validated_rate" "ratio";
    hi "server.ro_fast_share" "ratio";
    def "server.lease_settle_p50_ms" "ms";
    def "server.lease_settle_p99_ms" "ms";
    def "server.lease_blocked_writes" "count";
    def "server.lease_revokes" "count";
    def "server.lease_expiry_waits" "count";
    def "server.admission_wait_p99_ms" "ms";
    def "server.reexecutions" "count";
    def "store.reads_per_req" "count";
    def "store.writes_per_req" "count";
    def "raft.persist_p50_ms" "ms";
    def "raft.persist_p99_ms" "ms";
    def "raft.append_queue_p99_ms" "ms";
    hi "raft.cmds_per_entry" "count";
    def "raft.elections" "count";
    def "raft.log_entries" "count";
    real "gc.alloc_words_per_req" "words";
    real "gc.major_collections" "count";
    real "gc.live_mb_end" "MB";
    real "trace.overhead_pct" "%";
  ]

(* The metrics BENCHMARK.json lists: the last line of a run carries
   exactly these. *)
let headline_end_to_end =
  [
    "read_mean_ms"; "read_p99_ms"; "write_mean_ms"; "write_p99_ms";
    "max_rps_at_slo"; "sim_req_per_cpu_s"; "peak_heap_mb"; "setup_s";
  ]

(* Virtual stage times that sit on a fixed cost (a 6 ms store access, a
   function's compute time) or on a layer some workloads never use read
   the same on every seed; they are printed, but only the per-layer
   metrics that measure something on every workload are headline. *)
let fixed_on_some_workload =
  [
    "runtime.frw_predict_p50_ms"; "runtime.speculate_p50_ms";
    "runtime.followup_post_p50_ms"; "runtime.cache_repair_p99_ms";
    "server.lock_wait_p50_ms"; "server.validate_p50_ms";
    "server.backup_exec_p50_ms";
    "server.lease_settle_p50_ms"; "server.lease_settle_p99_ms";
    "server.admission_wait_p99_ms"; "raft.persist_p50_ms";
    "raft.persist_p99_ms"; "raft.append_queue_p99_ms";
  ]

let headline_per_layer =
  List.filter_map
    (fun d -> if List.mem d.name fixed_on_some_workload then None else Some d.name)
    per_layer

let find name =
  List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

(* --- order statistics ---------------------------------------------------

   Type-7 (linear interpolation between order statistics) over a sorted
   array. A percentile is refused when fewer than [min_tail] samples lie
   beyond it: a p99 over 300 requests is the third-largest sample, not
   a tail. *)

let min_tail = 10

let enough ~n p = float_of_int n *. (1.0 -. p) >= float_of_int min_tail

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let a = sorted.(lo) and b = sorted.(hi) in
    if a = b then a else a +. ((rank -. float_of_int lo) *. (b -. a))

let quantile_of l p =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a p

let median_of l = quantile_of l 0.5

(* Quartiles as Python's [statistics.quantiles(values, n=4)] (its default
   "exclusive" method) gives them, so the spreads printed here match the
   ones computed over the same runs elsewhere. *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = float_of_int (i * (n + 1)) /. 4.0 in
      let lo = max 1 (min (n - 1) (int_of_float (Float.floor j))) in
      let delta = j -. float_of_int lo in
      a.(lo - 1) +. (delta *. (a.(lo) -. a.(lo - 1)))
    in
    (q 1, percentile a 0.5, q 3)
