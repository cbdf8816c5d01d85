(* Shape regression tests for the evaluation: small-scale versions of the
   paper's experiments asserting the qualitative claims — who wins, the
   orderings, and the crossovers — so a protocol regression that skews
   the results fails CI, not just the benchmark report. *)

module Runner = Experiments.Runner
module Bundle = Apps.Bundle
module Location = Net.Location

let small sys app = Runner.run ~requests_per_client:10 sys app

(* --- Figure 4 shape: Radical between ideal and baseline -------------- *)

let test_radical_beats_baseline_on_social () =
  let baseline = small Runner.Central Bundle.social in
  let radical = small Runner.Radical Bundle.social in
  let ideal = small Runner.Local Bundle.social in
  let bm = Runner.median_of baseline in
  let rm = Runner.median_of radical in
  let im = Runner.median_of ideal in
  Alcotest.(check bool)
    (Printf.sprintf "ideal (%.0f) <= radical (%.0f) < baseline (%.0f)" im rm bm)
    true
    (im <= rm +. 1.0 && rm < bm);
  (* The paper's band: a solid fraction of the maximum improvement. *)
  let of_max = (bm -. rm) /. (bm -. im) in
  Alcotest.(check bool)
    (Printf.sprintf "of-max improvement %.2f in [0.6, 1.02]" of_max)
    true
    (of_max > 0.6 && of_max < 1.02);
  match radical.validation_rate with
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "validation %.2f >= 0.85" v)
        true (v >= 0.85)
  | None -> Alcotest.fail "no validation rate"

(* --- Figure 5 shape: Radical is flat across locations ---------------- *)

let test_radical_flat_across_locations () =
  let radical = small Runner.Radical Bundle.social in
  let baseline = small Runner.Central Bundle.social in
  let med r loc =
    match List.assoc_opt loc (Runner.by_loc r) with
    | Some s -> Metrics.Stats.median s
    | None -> Alcotest.fail ("no samples at " ^ loc)
  in
  (* Radical's spread over the near locations stays small... *)
  let meds = List.map (med radical) [ Location.va; Location.ca; Location.ie; Location.de ] in
  let spread = List.fold_left Float.max neg_infinity meds -. List.fold_left Float.min infinity meds in
  Alcotest.(check bool)
    (Printf.sprintf "radical spread %.1f ms <= 25" spread)
    true (spread <= 25.0);
  (* ...while the baseline grows with distance. *)
  Alcotest.(check bool) "baseline JP >> baseline VA" true
    (med baseline Location.jp > med baseline Location.va +. 80.0);
  (* And remote users gain the most (§5.4). *)
  Alcotest.(check bool) "JP gains more than VA" true
    (med baseline Location.jp -. med radical Location.jp
    > med baseline Location.va -. med radical Location.va)

(* --- Figure 1 shape: geo-replication doesn't help -------------------- *)

let test_geo_replication_loses_to_centralized () =
  let central = small Runner.Central Bundle.simple in
  let geo =
    small (Runner.Geo [ Location.va; Location.oh; Location.oregon ]) Bundle.simple
  in
  let med r loc =
    match List.assoc_opt loc (Runner.by_loc r) with
    | Some s -> Metrics.Stats.median s
    | None -> Alcotest.fail ("no samples at " ^ loc)
  in
  (* PRAM bound: consistent geo-replicated storage is slower than the
     centralized deployment in (at least) most locations. *)
  let worse =
    List.filter
      (fun loc -> med geo loc > med central loc)
      Location.user_locations
  in
  Alcotest.(check bool)
    (Printf.sprintf "geo worse in %d/5 locations" (List.length worse))
    true
    (List.length worse >= 4)

(* --- §5.5 shape: benefit grows with exec time, then plateaus --------- *)

let sweep_app t : Bundle.app =
  let open Fdsl.Ast in
  {
    name = "sweep";
    funcs =
      [ { fn_name = "work"; params = [ "k" ]; body = Compute (t, Read (Input "k")) } ];
    schema = [];
    seed = (fun _ -> [ ("hot", Dval.Str "v") ]);
    new_gen = (fun () -> fun _ -> ("work", [ Dval.Str "hot" ]));
  }

let benefit t =
  let run sys =
    Runner.run ~locations:[ Location.ca ] ~clients_per_loc:4
      ~requests_per_client:10 ~jitter:0.0 sys (sweep_app t)
  in
  Runner.median_of (run Runner.Central) -. Runner.median_of (run Runner.Radical)

let test_sensitivity_shape () =
  let b20 = benefit 20.0 in
  let b100 = benefit 100.0 in
  let b400 = benefit 400.0 in
  Alcotest.(check bool)
    (Printf.sprintf "positive benefit at 20 ms (%.1f)" b20)
    true (b20 > 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "benefit grows: %.1f < %.1f" b20 b100)
    true (b20 < b100);
  (* The plateau is the hidden RTT: lat(CA<->VA storage) - lat(VA). *)
  Alcotest.(check (float 5.0)) "plateau = hidden RTT" b100 b400;
  Alcotest.(check bool)
    (Printf.sprintf "plateau %.1f near 67" b400)
    true (b400 > 55.0 && b400 < 80.0)

(* --- Whole-system reproducibility ------------------------------------- *)

let test_runs_reproducible_from_seed () =
  (* Two identical full deployments (network jitter, workload sampling,
     protocol races and all) must agree sample for sample. *)
  let r1 = Runner.run ~seed:77 ~requests_per_client:8 Runner.Radical Bundle.forum in
  let r2 = Runner.run ~seed:77 ~requests_per_client:8 Runner.Radical Bundle.forum in
  Alcotest.(check int) "same sample count" (List.length r1.samples)
    (List.length r2.samples);
  List.iter2
    (fun (a : Runner.sample) (b : Runner.sample) ->
      Alcotest.(check bool) "identical sample" true
        (a.s_loc = b.s_loc && a.s_fn = b.s_fn
        && Float.abs (a.s_latency -. b.s_latency) < 1e-9))
    r1.samples r2.samples;
  Alcotest.(check bool) "same validation rate" true
    (r1.validation_rate = r2.validation_rate);
  (* And a different seed gives a different schedule. *)
  let r3 = Runner.run ~seed:78 ~requests_per_client:8 Runner.Radical Bundle.forum in
  Alcotest.(check bool) "different seed differs" true
    (List.map (fun (s : Runner.sample) -> s.s_latency) r3.samples
    <> List.map (fun (s : Runner.sample) -> s.s_latency) r1.samples)

(* --- Overlap is the win (ablation shape) ------------------------------ *)

let test_overlap_is_the_win () =
  let with_overlap = small Runner.Radical Bundle.social in
  let without =
    small
      (Runner.Radical_with
         { Radical.Framework.default_config with overlap = false })
      Bundle.social
  in
  Alcotest.(check bool) "overlap strictly faster" true
    (Runner.median_of with_overlap +. 20.0 < Runner.median_of without)

(* --- Traces ----------------------------------------------------------- *)

module Trace = Experiments.Trace

let test_trace_generate_deterministic () =
  let t1 = Trace.generate ~seed:5 ~rate:50.0 ~duration:4000.0 Bundle.social in
  let t2 = Trace.generate ~seed:5 ~rate:50.0 ~duration:4000.0 Bundle.social in
  Alcotest.(check bool) "same trace from same seed" true (t1 = t2);
  let n = List.length t1 in
  Alcotest.(check bool)
    (Printf.sprintf "arrival count %d plausible for 50/s x 4s" n)
    true
    (n > 120 && n < 280);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "times within duration" true
        (e.at >= 0.0 && e.at < 4000.0))
    t1

let test_trace_save_load_roundtrip () =
  let trace = Trace.generate ~seed:9 ~rate:40.0 ~duration:2000.0 Bundle.hotel in
  let path = Filename.temp_file "radical-trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      match Trace.load path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check int) "same length" (List.length trace)
            (List.length loaded);
          List.iter2
            (fun (a : Trace.event) (b : Trace.event) ->
              Alcotest.(check bool) "event preserved" true
                (Float.abs (a.at -. b.at) < 0.001
                && a.from = b.from && a.fn = b.fn && a.args = b.args))
            trace loaded;
          (* Saving the loaded trace reproduces the file byte for byte. *)
          let path2 = Filename.temp_file "radical-trace" ".tsv" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path2)
            (fun () ->
              Trace.save loaded path2;
              let read p = In_channel.with_open_text p In_channel.input_all in
              Alcotest.(check string) "fixpoint" (read path) (read path2)))

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "radical-trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "not\ta\tvalid\n");
      match Trace.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected load failure")

let test_trace_replay () =
  let trace = Trace.generate ~seed:3 ~rate:30.0 ~duration:3000.0 Bundle.social in
  let r = Trace.replay Runner.Radical Bundle.social trace in
  Alcotest.(check int) "every event replayed" (List.length trace)
    (List.length r.samples);
  Alcotest.(check int) "no errors" 0 r.errors;
  (* Replays are deterministic. *)
  let r2 = Trace.replay Runner.Radical Bundle.social trace in
  Alcotest.(check (float 1e-9)) "deterministic medians"
    (Runner.median_of r) (Runner.median_of r2);
  (* The same trace drives a baseline for an apples-to-apples compare. *)
  let b = Trace.replay Runner.Central Bundle.social trace in
  Alcotest.(check bool) "radical beats baseline on the same trace" true
    (Runner.median_of r < Runner.median_of b)

(* Replay reads its rates through the same harness as closed-loop runs,
   so a Radical replay reports how many requests speculated. *)
let test_trace_replay_spec_rate () =
  let trace = Trace.generate ~seed:3 ~rate:30.0 ~duration:3000.0 Bundle.social in
  match (Trace.replay Runner.Radical Bundle.social trace).spec_rate with
  | None -> Alcotest.fail "spec_rate not reported"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "spec_rate %g in (0, 1]" r)
        true
        (r > 0.0 && r <= 1.0)

(* --- BENCH files ------------------------------------------------------ *)

let json_of ~config measurements =
  let dir = Filename.temp_file "radical-bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Runner.write_json ~dir ~experiment:"t" ~config measurements in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check string) "path" (Filename.concat dir "BENCH_t.json") path;
      In_channel.with_open_text path In_channel.input_all)

let test_json_non_finite () =
  Alcotest.(check string) "nan and infinities are null"
    {|{
  "experiment": "t",
  "config": {
    "scale": "5"
  },
  "measurements": {
    "a": null,
    "b": null,
    "c": null,
    "d": 1.5
  }
}
|}
    (json_of ~config:[ ("scale", "5") ]
       [ ("a", nan); ("b", infinity); ("c", neg_infinity); ("d", 1.5) ])

let test_json_escaping () =
  Alcotest.(check string) "quotes, backslashes and control characters"
    {|{
  "experiment": "t",
  "config": {
    "k\"q": "v\\b"
  },
  "measurements": {
    "x\\y\nz\u0001": 2
  }
}
|}
    (json_of ~config:[ ("k\"q", "v\\b") ] [ ("x\\y\nz\001", 2.0) ])

let test_json_empty () =
  Alcotest.(check string) "empty blocks are still objects"
    {|{
  "experiment": "t",
  "config": {},
  "measurements": {}
}
|}
    (json_of ~config:[] [])

(* --- Feature sweeps ------------------------------------------------------ *)

let cell offered median =
  { Runner.offered; achieved = offered; median; p99 = median; requests = 1;
    errors = 0 }

let test_peak_stops_at_knee () =
  (* 400/s is back under 2x the first median, but it lies past the
     200/s knee. *)
  Alcotest.(check (float 0.0)) "the rate before the knee" 100.0
    (Runner.peak_sustainable
       [ cell 100.0 100.0; cell 200.0 300.0; cell 400.0 150.0 ]);
  Alcotest.(check (float 0.0)) "a NaN first median" 0.0
    (Runner.peak_sustainable [ cell 100.0 nan; cell 200.0 100.0 ])

(* The measurement names of a checked-in BENCH file, in order. *)
let bench_names target =
  In_channel.with_open_text
    (Printf.sprintf "../BENCH_%s.json" target)
    In_channel.input_lines
  |> List.fold_left
       (fun (inside, names) line ->
         if String.trim line = "\"measurements\": {" then (true, names)
         else if inside && String.starts_with ~prefix:"    \"" line then
           (true, Scanf.sscanf line " %S:" Fun.id :: names)
         else (inside, names))
       (false, [])
  |> snd |> List.rev

let test_sweep_names () =
  List.iter
    (fun (t : Experiments.Targets.t) ->
      Alcotest.(check (list string))
        (t.name ^ " names match BENCH_" ^ t.name ^ ".json")
        (bench_names t.name)
        (List.map fst (t.run ~scale:0.2)))
    Experiments.Targets.features

(* --- Semantic equivalence of the speculative path ---------------------- *)

(* Whatever the protocol machinery does — f^rw prediction, cache reads,
   buffered writes, validation — a single request against a quiescent,
   coherent deployment must return exactly what a plain execution of the
   same handler on the same data returns. *)
let prop_speculation_preserves_semantics =
  QCheck.Test.make ~name:"speculative result = plain execution result"
    ~count:40
    QCheck.(pair (int_range 0 2) small_int)
    (fun (which, seed) ->
      let app = List.nth [ Bundle.social; Bundle.hotel; Bundle.forum ] which in
      let seed = seed + 1 in
      let request_of rng = app.new_gen () rng in
      let run_radical () =
        let engine = Sim.Engine.create ~seed () in
        let out = ref None in
        Sim.Engine.run engine (fun () ->
            let rng = Sim.Engine.rng () in
            let net =
              Net.Transport.create ~jitter_sigma:0.0 ~rng:(Sim.Rng.split rng) ()
            in
            let data = app.seed (Sim.Rng.split rng) in
            let fw = Radical.Framework.create ~net ~funcs:app.funcs ~data () in
            let fn, args = request_of (Sim.Rng.split rng) in
            let o = Radical.Framework.invoke fw ~from:Location.ca fn args in
            out := Some (o.value, o.path);
            Radical.Framework.stop fw);
        Option.get !out
      in
      let run_plain () =
        let engine = Sim.Engine.create ~seed () in
        let out = ref None in
        Sim.Engine.run engine (fun () ->
            let rng = Sim.Engine.rng () in
            let _net =
              Net.Transport.create ~jitter_sigma:0.0 ~rng:(Sim.Rng.split rng) ()
            in
            let data = app.seed (Sim.Rng.split rng) in
            let b =
              Radical.Baselines.local ~locations:[ Location.ca ]
                ~funcs:app.funcs ~data ()
            in
            let fn, args = request_of (Sim.Rng.split rng) in
            let o = Radical.Baselines.invoke b ~from:Location.ca fn args in
            out := Some o.value);
        Option.get !out
      in
      let radical_value, path = run_radical () in
      let plain_value = run_plain () in
      (* A quiescent warm deployment must serve speculatively... *)
      path = Radical.Runtime.Speculative
      (* ...and agree with the plain execution bit for bit. *)
      && radical_value = plain_value)

(* --- The skeleton's stuck exit ----------------------------------------- *)

(* [load] on a one-site local baseline, cut off at 100 ms. *)
let simulate_until load =
  Runner.simulate ~until:100.0 ~seed:1 ~jitter:0.0
    ~tracer:Metrics.Tracer.noop ~locations:[ Location.ca ] Runner.Local
    ~funcs:[] ~schema:[]
    ~data:(fun _ -> [])
    (fun _ _ -> load ())

let test_simulate_until_sleeping () =
  Alcotest.(check int) "a load within the cap returns" 7
    (simulate_until (fun () -> Sim.Engine.sleep 50.0; 7));
  Alcotest.check_raises "a load past the cap" Runner.Unfinished (fun () ->
      simulate_until (fun () -> Sim.Engine.sleep 1000.0))

let test_simulate_until_suspended () =
  Alcotest.check_raises "a load that never resumes" Runner.Unfinished
    (fun () -> simulate_until (fun () -> Sim.Engine.suspend (fun _ -> ())))

let () =
  Alcotest.run "experiments"
    [
      ( "traces",
        [
          Alcotest.test_case "generate deterministic" `Quick
            test_trace_generate_deterministic;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_trace_save_load_roundtrip;
          Alcotest.test_case "load rejects garbage" `Quick
            test_trace_load_rejects_garbage;
          Alcotest.test_case "replay" `Slow test_trace_replay;
          Alcotest.test_case "replay reports spec_rate" `Slow
            test_trace_replay_spec_rate;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "until cuts off a sleeping load" `Quick
            test_simulate_until_sleeping;
          Alcotest.test_case "until cuts off a suspended load" `Quick
            test_simulate_until_suspended;
        ] );
      ( "bench json",
        [
          Alcotest.test_case "non-finite values" `Quick test_json_non_finite;
          Alcotest.test_case "key escaping" `Quick test_json_escaping;
          Alcotest.test_case "empty blocks" `Quick test_json_empty;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "peak stops at the knee" `Quick
            test_peak_stops_at_knee;
          Alcotest.test_case "names match the BENCH files" `Quick
            test_sweep_names;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_speculation_preserves_semantics ] );
      ( "shapes",
        [
          Alcotest.test_case "radical between ideal and baseline" `Slow
            test_radical_beats_baseline_on_social;
          Alcotest.test_case "radical flat across locations" `Slow
            test_radical_flat_across_locations;
          Alcotest.test_case "geo-replication loses" `Slow
            test_geo_replication_loses_to_centralized;
          Alcotest.test_case "sensitivity grows then plateaus" `Slow
            test_sensitivity_shape;
          Alcotest.test_case "runs reproducible from seed" `Slow
            test_runs_reproducible_from_seed;
          Alcotest.test_case "overlap is the win" `Slow test_overlap_is_the_win;
        ] );
    ]
