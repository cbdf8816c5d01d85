(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and the feature experiments (see DESIGN.md's experiment
   index), plus Bechamel microbenchmarks of the core primitives.

     dune exec bench/main.exe                 # the paper's evaluation + micro
     dune exec bench/main.exe -- fig4         # one experiment
     dune exec bench/main.exe -- --scale 1 fig4   # quick 2k-request run
     dune exec bench/main.exe -- --json shard # also write BENCH_shard.json *)

let micro () =
  print_newline ();
  print_endline "================================================================";
  print_endline "Microbenchmarks (Bechamel) — core primitive costs";
  print_endline "================================================================";
  let open Bechamel in
  let open Toolkit in
  (* A VM workload: sum 1..1000 through the interpreter. *)
  let sum_module =
    let open Wasm.Instr in
    Wasm.Wmodule.create
      ~funcs:
        [
          {
            Wasm.Wmodule.fn_name = "sum";
            n_params = 0;
            n_locals = 2;
            body =
              [
                Loop
                  [
                    Local_get 0; I64_const 1L; I64_binop Add; Local_set 0;
                    Local_get 1; Local_get 0; I64_binop Add; Local_set 1;
                    Local_get 0; I64_const 1000L; I64_binop Lt_s; Br_if 0;
                  ];
                Local_get 1;
              ];
          };
        ]
      ~imports:[]
  in
  let pure_host = Wasm.Host.pure () in
  let timeline_fn =
    List.find
      (fun (f : Fdsl.Ast.func) -> f.fn_name = "social-timeline")
      Apps.Catalog.all_functions
  in
  let derived =
    match Analyzer.Derive.derive timeline_fn with
    | Ok d -> d
    | Error _ -> assert false
  in
  let zipf = Workload.Zipf.create ~n:10000 ~theta:0.99 in
  let rng = Sim.Rng.create 1 in
  let lin_history =
    List.init 8 (fun i ->
        {
          Lincheck.op_id = string_of_int i;
          start = float_of_int i;
          finish = float_of_int i +. 0.5;
          reads = [ ("x", if i = 0 then Dval.Unit else Dval.int i) ];
          writes = [ ("x", Dval.int (i + 1)) ];
        })
  in
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
      [
        Test.make ~name:"vm-interp-sum1000"
          (Staged.stage (fun () ->
               ignore (Wasm.Interp.run sum_module ~host:pure_host ~entry:"sum" [])));
        (* The same workload wrapped in disabled-tracer spans, exactly as
           Runtime.invoke instruments it. Comparing against the plain run
           above checks that tracing off costs nothing (≤2% target). *)
        Test.make ~name:"vm-interp-sum1000-noop-trace"
          (Staged.stage (fun () ->
               let tracer = Metrics.Tracer.noop in
               let root = Metrics.Tracer.root tracer "sum" in
               let r =
                 Metrics.Tracer.with_phase tracer ~parent:root "exec" (fun () ->
                     Wasm.Interp.run sum_module ~host:pure_host ~entry:"sum" [])
               in
               Metrics.Tracer.stop root;
               ignore r));
        Test.make ~name:"fdsl-compile-timeline"
          (Staged.stage (fun () -> ignore (Fdsl.Compile.compile timeline_fn)));
        Test.make ~name:"analyzer-derive-timeline"
          (Staged.stage (fun () -> ignore (Analyzer.Derive.derive timeline_fn)));
        Test.make ~name:"analyzer-predict-timeline"
          (Staged.stage (fun () ->
               ignore
                 (Analyzer.Derive.predict derived
                    ~read:(fun _ -> Dval.List [ Dval.Str "a" ])
                    [ Dval.Str "u1" ])));
        Test.make ~name:"zipf-sample"
          (Staged.stage (fun () -> ignore (Workload.Zipf.sample zipf rng)));
        Test.make ~name:"rng-bits64"
          (Staged.stage (fun () -> ignore (Sim.Rng.bits64 rng)));
        Test.make ~name:"lincheck-8ops"
          (Staged.stage (fun () -> ignore (Lincheck.check lin_history)));
        (* 64 timers over 64 distinct deadlines, every other one
           cancelled before the engine reaches it: the cost of arming,
           removing and popping events on the engine's heap. *)
        Test.make ~name:"engine-schedule-cancel-64"
          (Staged.stage (fun () ->
               Sim.Engine.run (Sim.Engine.create ()) (fun () ->
                   for i = 0 to 63 do
                     let ev =
                       Sim.Engine.arm
                         ~at:(float_of_int (i * 7919 mod 64))
                         ignore
                     in
                     if i land 1 = 1 then Sim.Engine.cancel ev
                   done)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> Printf.sprintf "%.0f ns" t
            | _ -> "n/a"
          in
          rows := [ name; time_ns ] :: !rows)
        tbl;
      Metrics.Table.print ~header:[ "benchmark"; "time/run" ]
        ~rows:(List.sort compare !rows))
    results

let usage () =
  print_endline
    "usage: main.exe [--scale F] [--seeds N] [--deployment SPEC] [--json] \
     [TARGET...]";
  let line name doc = Printf.printf "  %-12s%s\n" name doc in
  line "all" "every target from fig1 to phases, then micro (the default)";
  List.iter
    (fun (t : Experiments.Targets.t) -> line t.name t.doc)
    (Experiments.Targets.paper @ Experiments.Targets.features);
  print_string
    "  analyze     f^rw predict cost raw vs. residual-optimized, and the\n\
    \              read-only LVI fast-path latency ablation (on/off,\n\
    \              singleton and replicated)\n\
    \  chaos       fault-plan campaign over {social,forum} x \
     {singleton,replicated};\n\
    \    --seeds N   seeds per grid cell (default 50 = 200 sweeps total;\n\
    \                'make check' smoke-tests with --seeds 20); each seed\n\
    \    runs every default template (followup-storm, message-chaos,\n\
    \    cache-loss, server-restart, partition-heal, raft-churn,\n\
    \    everything), then a protocol mutation is injected to prove the\n\
    \    invariant oracle catches and shrinks real bugs.\n\
    \    --deployment SPEC  run every cell with these deployment features:\n\
    \                'paper' (default) or a comma-separated list of\n\
    \                replicated, batched (every batching knob and followup\n\
    \                coalescing), propagating, leased and sharded=N (N >= 2).\n\
    \                Each feature has a chaos template that attacks it:\n\
    \                propagation-chaos (lost/duplicated/delayed\n\
    \                cache_update messages), lease-chaos (the same for\n\
    \                lease_revoke, plus cache wipes and late cache updates)\n\
    \                and shard-chaos (delayed prepares, dropped decisions,\n\
    \                shard restarts, leader crashes) under the\n\
    \                cross-atomicity oracle.\n\
    \  micro       Bechamel microbenchmarks of the core primitives\n\
    \  --json: also write each target's measurements to BENCH_<target>.json\n\
    \    (medians, p99, throughput, acceptance flags, scale).\n";
  exit 1

let () =
  (* Default 5.0 reproduces the paper's 10,000 requests per deployment. *)
  let scale = ref 5.0 in
  let seeds = ref 50 in
  let deployment = ref [] in
  let json = ref false in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--deployment" :: v :: rest ->
        (match Radical.Deployment.of_string v with
        | Ok features -> deployment := features
        | Error e ->
            prerr_endline e;
            usage ());
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> scale := f
        | _ -> usage ());
        parse rest
    | "--seeds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> seeds := n
        | _ -> usage ());
        parse rest
    | arg :: rest ->
        targets := arg :: !targets;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let targets = if !targets = [] then [ "all" ] else List.rev !targets in
  let scale = !scale in
  let run (t : Experiments.Targets.t) =
    let measurements = t.run ~scale in
    if !json then begin
      let config = [ ("scale", Printf.sprintf "%g" scale) ] in
      let path =
        Experiments.Runner.write_json ~experiment:t.name ~config measurements
      in
      Printf.printf "wrote %s\n" path
    end
  in
  List.iter
    (fun target ->
      match target with
      | "all" ->
          List.iter run Experiments.Targets.paper;
          micro ()
      | "analyze" -> Experiments.Analyze_exp.run ~scale ()
      | "chaos" ->
          let violations =
            Experiments.Chaos_exp.run ~seeds:!seeds ~deployment:!deployment ()
          in
          if violations > 0 then exit 2
      | "micro" -> micro ()
      | name -> (
          match Experiments.Targets.find name with
          | Some t -> run t
          | None -> usage ()))
    targets
