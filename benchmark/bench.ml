(* One workload, measured: the untraced run gives the end-to-end metrics
   and the correctness gates, the traced run the per-layer metrics. *)

module Tracer = Metrics.Tracer
module Stats = Metrics.Stats
module Registry = Radical.Registry
module Runtime = Radical.Runtime

type gate = { gate : string; ok : bool; detail : string }

(* A metric value, or a refusal: too few samples beyond the percentile,
   or a layer the workload never exercises. *)
type value = Value of float | Refused of string

type report = {
  workload : string;
  traced : bool;
  calib : float;
  values : (string * value) list; (* in [Metric] order *)
  notes : (string * string) list; (* printed beside the metrics *)
  gates : gate list;
  attempted : int;
  failed : int;
  trace_file : string option;
}

(* Sizes of the auxiliary measurements; the smoke run shrinks them. *)
type sizes = {
  setup_samples : int;
  setup_min_cpu : float; (* CPU seconds per set-up sample *)
  layer_min_cpu : float; (* ... per sample of a set-up layer *)
  calib_bursts : int;
  calib_iters : int;
  lincheck_requests : int;
  replay_calls : int;
  replay_passes : int;
  enforce_tails : bool; (* refuse p99s with too few samples beyond *)
  progress : bool; (* step timings on stderr *)
}

let full =
  {
    setup_samples = 15;
    setup_min_cpu = 0.05;
    layer_min_cpu = 0.02;
    calib_bursts = 5;
    calib_iters = 10_000_000;
    lincheck_requests = 1000;
    replay_calls = 2000;
    replay_passes = 5;
    enforce_tails = true;
    progress = true;
  }

let smoke =
  {
    setup_samples = 3;
    setup_min_cpu = 0.002;
    layer_min_cpu = 0.001;
    calib_bursts = 1;
    calib_iters = 1_000_000;
    lincheck_requests = 100;
    replay_calls = 200;
    replay_passes = 1;
    enforce_tails = false;
    progress = false;
  }

(* Search nodes per key-sharing component: room for the candidate order
   (one node per operation) and some backtracking, while an exhausted
   budget still costs only seconds. *)
let lincheck_budget = 5_000

(* Progress on stderr: which step of a run took how long (wall). *)
let step ~sizes (w : Workloads.t) what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  if sizes.progress then
    Printf.eprintf "radbench: %s %s %.1f s\n%!" w.name what (Unix.gettimeofday () -. t0);
  r

(* --- end-to-end --------------------------------------------------------- *)

let pct ~sizes sorted p =
  let n = Array.length sorted in
  if n = 0 then Refused "n=0"
  else if sizes.enforce_tails && not (Metric.enough ~n p) then
    Refused (Printf.sprintf "n=%d, fewer than %d beyond" n Metric.min_tail)
  else Value (Metric.percentile sorted p)

(* Mean of the successful ones (failures are infinite in the buffer and
   are counted by [error_rate] instead). *)
let mean sorted =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun x ->
      if Float.is_finite x then begin
        sum := !sum +. x;
        incr n
      end)
    sorted;
  if !n = 0 then Refused "n=0" else Value (!sum /. float_of_int !n)

let merge_sorted a b =
  let c = Array.append a b in
  Array.sort Float.compare c;
  c

type rung = { rate : float; latency : float; achieved : float; meets : bool }

(* One ladder rung: same seed and inputs as the main run, shorter, no
   fault. It meets the SLO when its SLO percentile (failures infinite)
   is within the limit and completions kept up with arrivals: every request had
   completed within 5% of the arrival window after the last one arrived,
   so no backlog grew. The achieved rate is completions over the time
   from the first arrival to the last completion. *)
let rung (w : Workloads.t) ~seed rate =
  let r = Drive.run w (Drive.opts ~seed ~rate ~duration:w.ladder_duration ()) in
  let lat =
    match w.slo_on with
    | Reads -> r.read_lat
    | All_requests -> merge_sorted r.read_lat r.write_lat
  in
  let latency = if Array.length lat = 0 then infinity else Metric.percentile lat w.slo_pct in
  let arriving = r.last_arrival -. r.first_arrival in
  let serving = Float.max 1e-9 (r.last_completion -. r.first_arrival) in
  let achieved = float_of_int r.attempted /. (serving /. 1000.0) in
  { rate; latency; achieved; meets = latency <= w.slo_ms && arriving >= 0.95 *. serving }

(* Longest wait between consecutive successful write completions around
   the crash: pairs that end after it and start within [window] of it. *)
let failover_gap ?(window = 5_000.0) (r : Drive.result) =
  match r.crashed_at with
  | None -> None
  | Some c ->
      let ts = r.write_ok_at in
      let gap = ref 0.0 and prev = ref c in
      Array.iter
        (fun t ->
          if t <= c then prev := t
          else if !prev < c +. window then begin
            gap := Float.max !gap (t -. !prev);
            prev := t
          end)
        ts;
      if !prev < c +. window then gap := Float.max !gap (c +. window -. !prev);
      Some !gap

let drain_gate (r : Drive.result) =
  let c = r.counters in
  {
    gate = "drained";
    ok = c.locks_held = 0 && c.pending_intents = 0;
    detail = Printf.sprintf "locks_held=%d pending_intents=%d" c.locks_held c.pending_intents;
  }

let conserved_gate (w : Workloads.t) (r : Drive.result) =
  match (w.conserved, r.counters.conserved_sum) with
  | Some (prefix, want), Some got ->
      [
        {
          gate = "conserved";
          ok = got = want;
          detail = Printf.sprintf "sum of %s* = %d (want %d)" prefix got want;
        };
      ]
  | _ -> []

(* Linearizability is local: a history is linearizable iff the
   sub-history of every independent object is. Ops whose key sets
   overlap (transitively) form one composite object, so each connected
   component of the key-sharing graph is checked on its own — smaller
   searches, same verdict. *)
let components (ops : Lincheck.op list) =
  let parent = Hashtbl.create 1024 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None -> k
    | Some p ->
        let r = find p in
        Hashtbl.replace parent k r;
        r
  in
  let keys (o : Lincheck.op) = List.map fst o.reads @ List.map fst o.writes in
  List.iter
    (fun o ->
      match keys o with
      | [] -> ()
      | k :: rest ->
          List.iter
            (fun k' ->
              let a = find k and b = find k' in
              if a <> b then Hashtbl.replace parent a b)
            rest)
    ops;
  let groups = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let root = match keys o with [] -> "" | k :: _ -> find k in
      Hashtbl.replace groups root (o :: Option.value ~default:[] (Hashtbl.find_opt groups root)))
    ops;
  Hashtbl.fold (fun _ g acc -> List.rev g :: acc) groups []

(* The order to offer the checker first. Its search tries operations in
   list order, so a good first guess saves the exponential backtracking
   a hot key otherwise costs. Read-only operations never change the
   state, so taking any applicable one as early as real time allows is
   safe; among writers, the one that must finish first goes first. The
   checker still decides — this only orders its search. *)
let candidate_order ~init (ops : Lincheck.op list) =
  let state = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace state k v) init;
  let applicable (o : Lincheck.op) =
    List.for_all
      (fun (k, v) -> Dval.equal (Option.value ~default:Dval.Unit (Hashtbl.find_opt state k)) v)
      o.reads
  in
  let rec go acc = function
    | [] -> List.rev acc
    | pending -> (
        let min_finish =
          List.fold_left (fun m (o : Lincheck.op) -> Float.min m o.finish) infinity pending
        in
        let ready =
          List.filter (fun (o : Lincheck.op) -> o.start <= min_finish && applicable o) pending
        in
        let first_to_finish () =
          List.fold_left
            (fun best (o : Lincheck.op) ->
              match best with
              | Some (b : Lincheck.op) when b.finish <= o.finish -> best
              | _ -> Some o)
            None ready
        in
        match List.find_opt (fun (o : Lincheck.op) -> o.writes = []) ready with
        | Some o -> take acc pending o
        | None -> (
            match first_to_finish () with
            | Some o -> take acc pending o
            | None -> List.rev_append acc pending))
  and take acc pending (o : Lincheck.op) =
    List.iter (fun (k, v) -> Hashtbl.replace state k v) o.writes;
    go (o :: acc) (List.filter (fun p -> p != o) pending)
  in
  go [] (List.stable_sort (fun (a : Lincheck.op) b -> Float.compare a.start b.start) ops)

let lincheck_verdict ~init ops =
  List.fold_left
    (fun acc group ->
      match acc with
      | Lincheck.Not_linearizable -> acc
      | _ -> (
          match
            Lincheck.decide ~init ~budget:lincheck_budget (candidate_order ~init group)
          with
          | Lincheck.Linearizable _ -> acc
          | v -> v))
    (Lincheck.Linearizable []) (components ops)

(* A short recorded run checked for linearizability from the seed data.
   The search is budgeted: [Inconclusive] is reported, not failed. *)
let lincheck_gate (w : Workloads.t) ~sizes ~seed =
  let duration = float_of_int sizes.lincheck_requests /. w.rate *. 1000.0 in
  let r =
    Drive.run w (Drive.opts ~seed ~rate:w.rate ~duration ~record_history:true ())
  in
  let init = Drive.seed_data w seed in
  let ok, verdict =
    match lincheck_verdict ~init r.history with
    | Lincheck.Linearizable _ -> (true, "")
    | Inconclusive -> (true, Printf.sprintf ", inconclusive within %d nodes" lincheck_budget)
    | Not_linearizable -> (false, ", not linearizable")
  in
  {
    gate = "linearizable";
    ok;
    detail = Printf.sprintf "%d ops%s" (List.length r.history) verdict;
  }

(* The 90th percentile of the main run's slice rates (see [Timing]). *)
let sim_rate (r : Drive.result) = Metric.quantile_of (Array.to_list r.seg_rates) 0.9

let main_opts (w : Workloads.t) ~seed =
  Drive.opts ?fault:w.fault ~seed ~rate:w.rate ~duration:w.duration

let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

let tails_gate values =
  let refused =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Refused why when String.ends_with ~suffix:"_p99_ms" name ->
            Some (name ^ " (" ^ why ^ ")")
        | _ -> None)
      values
  in
  {
    gate = "tail_samples";
    ok = refused = [];
    detail = (if refused = [] then "every p99 has >= 10 samples beyond" else String.concat "; " refused);
  }

let untraced (w : Workloads.t) ~sizes ~seed =
  let calib = Timing.calib_mops ~bursts:sizes.calib_bursts ~iters:sizes.calib_iters () in
  let main = step ~sizes w "main run" (fun () -> Drive.run w (main_opts w ~seed ())) in
  (* Read before anything else allocates: the process's heap high-water
     mark is the main run's. *)
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).top_heap_words *. word_mb
  in
  (* Set-up is sampled at three points of the run, from a compacted
     heap, so one busy stretch of the machine cannot cover all samples. *)
  let data = Drive.seed_data w seed in
  let sample_setup () =
    Gc.compact ();
    step ~sizes w "set-up" (fun () ->
        Timing.self_timed ~n:(sizes.setup_samples / 3) ~min_cpu:sizes.setup_min_cpu
          (fun () -> Drive.setup_once w ~seed ~data))
  in
  let s1 = sample_setup () in
  let rungs = step ~sizes w "ladder" (fun () -> List.map (rung w ~seed) w.ladder) in
  let max_rps =
    List.fold_left (fun acc r -> if r.meets then r.rate else acc) 0.0 rungs
  in
  let s2 = sample_setup () in
  let lin = step ~sizes w "lincheck" (fun () -> lincheck_gate w ~sizes ~seed) in
  let setup_s = Timing.fastest (s1 @ s2 @ sample_setup ()) in
  let rd = main.read_lat and wr = main.write_lat in
  let values =
    [
      ("read_mean_ms", mean rd);
      ("read_p50_ms", pct ~sizes rd 0.5);
      ("read_p99_ms", pct ~sizes rd 0.99);
      ("write_mean_ms", mean wr);
      ("write_p50_ms", pct ~sizes wr 0.5);
      ("write_p99_ms", pct ~sizes wr 0.99);
      ("error_rate", Value (float_of_int main.errors /. float_of_int (max 1 main.attempted)));
      ("max_rps_at_slo", Value max_rps);
    ]
    @ (match failover_gap main with
      | Some g -> [ ("failover_gap_ms", Value g) ]
      | None -> [])
    @ [
        ("sim_req_per_cpu_s", Value (sim_rate main));
        ("peak_heap_mb", Value peak_heap_mb);
        ("setup_s", Value setup_s);
      ]
  in
  let notes =
    [
      ( "sim_req_per_cpu_s slices",
        String.concat " " (List.map (Printf.sprintf "%.0f") (Array.to_list main.seg_rates)) );
      ("read_n", string_of_int (Array.length rd));
      ("write_n", string_of_int (Array.length wr));
      ("slo", Workloads.slo_name w);
      ( "ladder",
        String.concat " "
          (List.map
             (fun r ->
               Printf.sprintf "%.0f/s:%.1fms,done=%.1f/s%s" r.rate r.latency r.achieved
                 (if r.meets then "" else ",miss"))
             rungs) );
    ]
  in
  let gates =
    [ drain_gate main ]
    @ conserved_gate w main
    @ [ lin ]
    @ if sizes.enforce_tails then [ tails_gate values ] else []
  in
  {
    workload = w.name;
    traced = false;
    calib;
    values;
    notes;
    gates;
    attempted = main.attempted;
    failed = main.errors;
    trace_file = None;
  }

(* --- per layer ---------------------------------------------------------- *)

let ratio a b = if b = 0 then Value 0.0 else Value (float_of_int a /. float_of_int b)

let per_req (r : Drive.result) x = Value (x /. float_of_int (max 1 r.attempted))

(* A tracer histogram's percentile under the same refusal rule. *)
let stat_pct s p =
  match s with
  | None -> Refused "not exercised"
  | Some s ->
      let n = Stats.count s in
      if not (Metric.enough ~n p) then Refused (Printf.sprintf "n=%d" n)
      else Value (Stats.percentile s p)

let phase tracer name =
  List.fold_left
    (fun acc ((_, ph, _), s) ->
      if ph <> name then acc
      else match acc with None -> Some s | Some m -> Some (Stats.merge m s))
    None (Tracer.phase_stats tracer)

(* Set-up layers, timed from the benchmark around public calls on the
   workload's own functions: one sample is a pass over every function. *)
let setup_layers (w : Workloads.t) ~sizes =
  let time f =
    Value
      (1000.0 *. Timing.per_call ~n:sizes.setup_samples ~min_cpu:sizes.layer_min_cpu f)
  in
  let compiled = List.map (fun f -> (f, Fdsl.Compile.compile f)) w.funcs in
  let derived =
    List.map (fun f -> (f, Result.to_option (Analyzer.Derive.derive f))) w.funcs
  in
  [
    ( "analyzer.derive_ms",
      time (fun () ->
          List.iter
            (fun f ->
              match Analyzer.Derive.derive f with
              | Ok d -> ignore (Analyzer.Optimize.optimize d)
              | Error _ -> ())
            w.funcs) );
    ( "analyzer.certify_ms",
      time (fun () ->
          List.iter
            (fun (f, m) ->
              ignore
                (Analyzer.Certify.check ~source:f ~modul:m
                   ?derived:(List.assq f derived) ()))
            compiled) );
    ("fdsl.compile_ms", time (fun () -> List.iter (fun f -> ignore (Fdsl.Compile.compile f)) w.funcs));
    ( "wasm.validate_ms",
      time (fun () -> List.iter (fun (_, m) -> ignore (Wasm.Validate.check_all m)) compiled) );
  ]

(* Per-request layers, replayed outside the engine on the first recorded
   invocations against a snapshot of the primary taken after the run:
   f^rw prediction and one interpretation of the compiled function. *)
let replay_layers (w : Workloads.t) ~sizes (r : Drive.result) =
  let reg = Registry.create () in
  List.iter (fun f -> ignore (Registry.register reg f)) w.funcs;
  let store = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace store k v) r.snapshot;
  let read k = Option.value ~default:Dval.Unit (Hashtbl.find_opt store k) in
  let calls =
    Array.to_list r.calls
    |> List.filter_map (fun (fn, args) ->
           Option.map (fun e -> (e, args)) (Registry.find reg fn))
  in
  let n = max 1 (List.length calls) in
  let predict () =
    List.iter
      (fun ((e : Registry.entry), args) ->
        match e.derived with
        | Some d -> ignore (Analyzer.Derive.predict d ~read args)
        | None -> ())
      calls
  in
  let instrs = ref 0 in
  let interp () =
    instrs := 0;
    List.iter
      (fun ((e : Registry.entry), args) ->
        let written = Hashtbl.create 8 in
        let host =
          {
            Wasm.Host.read =
              (fun k ->
                match Hashtbl.find_opt written k with Some v -> v | None -> read k);
            write = Hashtbl.replace written;
            compute = ignore;
            external_call = (fun _ v -> v);
          }
        in
        ignore (Wasm.Interp.run e.modul ~host ~entry:e.func.fn_name args);
        instrs := !instrs + Wasm.Interp.instructions_executed ())
      calls
  in
  let us_per_call f =
    Value
      (1e6 /. float_of_int n
      *. Timing.per_call ~n:sizes.replay_passes ~min_cpu:sizes.layer_min_cpu f)
  in
  (* Timed before the list is built: its last pass leaves the count. *)
  let interp_us = us_per_call interp in
  [
    ("analyzer.predict_us", us_per_call predict);
    ("wasm.interp_us", interp_us);
    ("wasm.instrs_per_req", Value (float_of_int !instrs /. float_of_int n));
  ]

(* Identical virtual behaviour with and without the tracer. *)
let same_virtual (a : Drive.result) (b : Drive.result) =
  a.attempted = b.attempted && a.errors = b.errors && a.read_lat = b.read_lat
  && a.write_lat = b.write_lat && a.write_ok_at = b.write_ok_at
  && a.crashed_at = b.crashed_at

(* Per-layer values read off the two runs and the tracer. *)
let observed_values ~(plain : Drive.result) ~(traced : Drive.result) tracer =
  let c = traced.counters in
  let count x = Value (float_of_int x) in
  let stages name = count (Option.value ~default:0 (List.assoc_opt name c.stage_counts)) in
  let rt_sum f = List.fold_left (fun acc s -> acc + f s) 0 c.rt in
  let batch_mean label =
    match List.assoc_opt label (Tracer.batch_stats tracer) with
    | Some s when Stats.count s > 0 -> Some (Stats.mean s)
    | _ -> None
  in
  let queue label = List.assoc_opt label (Tracer.queue_stats tracer) in
  [
    ("sim.events_per_req", per_req traced (float_of_int traced.events));
    ("sim.events_per_cpu_s", Value (float_of_int plain.events /. Float.max 1e-9 plain.cpu_s));
    ("sim.live_fibers_peak", count traced.fibers_peak);
    ("net.msgs_per_req", per_req traced (float_of_int c.msgs_sent));
    ("net.lvi_wire_p50_ms", stat_pct (List.assoc_opt "lvi" (Tracer.wire_stats tracer)) 0.5);
    ("net.timeouts", count c.rpc_timeouts);
    ("runtime.frw_predict_p50_ms", stat_pct (phase tracer "frw_predict") 0.5);
    ("runtime.speculate_p50_ms", stat_pct (phase tracer "speculate") 0.5);
    ("runtime.followup_post_p50_ms", stat_pct (phase tracer "followup_post") 0.5);
    ("runtime.lvi_rtt_p50_ms", stat_pct (phase tracer "lvi_rtt") 0.5);
    ("runtime.lvi_rtt_p99_ms", stat_pct (phase tracer "lvi_rtt") 0.99);
    ("runtime.cache_repair_p99_ms", stat_pct (phase tracer "cache_repair") 0.99);
    ( "runtime.spec_rate",
      ratio (rt_sum (fun s -> s.Runtime.speculative)) (rt_sum (fun s -> s.invocations)) );
    ("runtime.skipped_spec", count (rt_sum (fun s -> s.skipped_speculations)));
    ("runtime.local_rate", ratio (rt_sum (fun s -> s.lease_local)) (Array.length traced.read_lat));
    ( "runtime.followups_per_msg",
      (* Without coalescing every followup is its own message. *)
      match batch_mean "followup" with
      | Some m -> Value m
      | None -> Value (if c.srv_followups > 0 then 1.0 else 0.0) );
    ("cache.hit_rate", ratio c.cache_hits (c.cache_hits + c.cache_misses));
    ("cache.lease_refused", count (rt_sum (fun s -> s.lease_refused)));
    ("cache.lease_revoked", count (rt_sum (fun s -> s.lease_revoked)));
    ("server.stage.admit.n", stages "admit");
    ("server.stage.lock.n", stages "lock");
    ("server.stage.settle.n", stages "settle");
    ("server.stage.validate.n", stages "validate");
    ("server.stage.ro_validate.n", stages "ro_validate");
    ("server.lock_wait_p50_ms", stat_pct (phase tracer "lock_wait") 0.5);
    ("server.lock_wait_p99_ms", stat_pct (phase tracer "lock_wait") 0.99);
    ("server.validate_p50_ms", stat_pct (phase tracer "validate") 0.5);
    ("server.backup_exec_p50_ms", stat_pct (phase tracer "backup_exec") 0.5);
    ("server.validated_rate", ratio c.srv_validated (c.srv_validated + c.srv_mismatched));
    ("server.ro_fast_share", ratio c.srv_ro_fast c.srv_requests);
    ("server.lease_settle_p50_ms", stat_pct (phase tracer "lease_settle") 0.5);
    ("server.lease_settle_p99_ms", stat_pct (phase tracer "lease_settle") 0.99);
    ("server.lease_blocked_writes", count c.srv_lease_blocked_writes);
    ("server.lease_revokes", count c.srv_lease_revokes);
    ("server.lease_expiry_waits", count c.srv_lease_expiry_waits);
    ("server.admission_wait_p99_ms", stat_pct (queue "admission") 0.99);
    ("server.reexecutions", count c.srv_reexecutions);
    ("store.reads_per_req", per_req traced (float_of_int c.kv_reads));
    ("store.writes_per_req", per_req traced (float_of_int c.kv_writes));
    ("raft.persist_p50_ms", stat_pct (Tracer.raft_stats tracer) 0.5);
    ("raft.persist_p99_ms", stat_pct (Tracer.raft_stats tracer) 0.99);
    ("raft.append_queue_p99_ms", stat_pct (queue "raft_entry") 0.99);
    ( "raft.cmds_per_entry",
      match batch_mean "raft_entry" with Some m -> Value m | None -> Refused "not exercised" );
    ("raft.elections", count c.elections);
    ("raft.log_entries", count c.raft_log);
    ("gc.alloc_words_per_req", per_req plain plain.alloc_words);
    ("gc.major_collections", count plain.major_collections);
    ("gc.live_mb_end", Value (float_of_int plain.live_words_end *. word_mb));
    ("trace.overhead_pct", Value (100.0 *. ((sim_rate plain /. sim_rate traced) -. 1.0)));
  ]

let in_metric_order values =
  List.filter_map
    (fun (d : Metric.def) -> Option.map (fun v -> (d.name, v)) (List.assoc_opt d.name values))
    Metric.per_layer

let slowest_trees tracer =
  List.map (fun s -> Format.asprintf "%a" Metrics.Span.pp s) (Tracer.slowest ~k:5 tracer)

let write_trace_file ~out ~workload ~values ~phases ~slowest =
  let path = Filename.concat out (Printf.sprintf "trace-%s.json" workload) in
  let metric (name, v) =
    ( name,
      match v with
      | Value x -> Json.Num x
      | Refused why -> Json.Obj [ ("refused", Json.Str why) ] )
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("per_layer", Json.Obj (List.map metric values));
        ("phases", Json.Raw phases);
        ("slowest", Json.Arr (List.map (fun s -> Json.Str s) slowest));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  path

let traced (w : Workloads.t) ~sizes ~seed ~out =
  let calib = Timing.calib_mops ~bursts:sizes.calib_bursts ~iters:sizes.calib_iters () in
  let plain =
    step ~sizes w "untraced main run" (fun () -> Drive.run w (main_opts w ~seed ~measure_live:true ()))
  in
  let tr, observed, phases, slowest, traces =
    let tracer = Tracer.create () in
    let tr =
      step ~sizes w "traced main run" (fun () ->
          Drive.run w
            (main_opts w ~seed ~tracer ~stage_hook:true ~keep_calls:sizes.replay_calls ()))
    in
    ( tr,
      observed_values ~plain ~traced:tr tracer,
      Tracer.phases_json tracer,
      slowest_trees tracer,
      Tracer.trace_count tracer )
  in
  (* The tracer holds every span tree; time the layers without it. *)
  Gc.compact ();
  let timed =
    step ~sizes w "layer timings" (fun () -> setup_layers w ~sizes @ replay_layers w ~sizes tr)
  in
  let values = in_metric_order (observed @ timed) in
  let path = write_trace_file ~out ~workload:w.name ~values ~phases ~slowest in
  let gates =
    [
      drain_gate plain;
      drain_gate tr;
      {
        gate = "trace_reproduces";
        ok = same_virtual plain tr;
        detail = "traced run's virtual latencies, errors and completions equal the untraced run's";
      };
    ]
    @ conserved_gate w tr
  in
  {
    workload = w.name;
    traced = true;
    calib;
    values;
    notes = [ ("traces", string_of_int traces) ];
    gates;
    attempted = tr.attempted;
    failed = tr.errors;
    trace_file = Some path;
  }
