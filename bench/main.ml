(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), plus Bechamel
   microbenchmarks of the core primitives.

     dune exec bench/main.exe                 # everything at paper volume
     dune exec bench/main.exe -- fig4         # one experiment
     dune exec bench/main.exe -- --scale 1 fig4   # quick 2k-request run *)

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
        Test.make ~name:"pqueue-push-pop-64"
          (Staged.stage (fun () ->
               let q = Sim.Pqueue.create ~cmp:Int.compare in
               for i = 0 to 63 do
                 Sim.Pqueue.push q (i * 7919 mod 64)
               done;
               while not (Sim.Pqueue.is_empty q) do
                 ignore (Sim.Pqueue.pop q)
               done));
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
    "usage: main.exe [--scale F] [--seeds N] \
     [--deployment SPEC] [--json] \
     [all|fig1|table1|table2|fig4|fig5|fig6|repl|cost|sensitivity|skew|throughput|bootstrap|ablation|analyze|phases|batch|propagate|lease|shard|chaos|micro]";
  print_endline
    "  batch: batching load sweep — open-loop Poisson load against the";
  print_endline
    "    replicated LVI server with group commit / lock-record flush /";
  print_endline
    "    admission / followup coalescing toggled per variant; prints";
  print_endline
    "    median+p99+achieved throughput per offered rate and the";
  print_endline "    batched-vs-unbatched acceptance verdict.";
  print_endline
    "  lease: read-lease experiment — read-heavy zipf mix; read-only";
  print_endline
    "    median latency with leases off / on (revocation) / on";
  print_endline
    "    (expiry-wait only), lease-local and settle counters, plus the";
  print_endline "    >=40% read-only median reduction acceptance verdict.";
  print_endline
    "  propagate: cache-update propagation experiment — multi-site";
  print_endline
    "    shared-key workload; speculation-success rate and latency with";
  print_endline
    "    propagation off / Nagle window sweep / invalidate-only, plus";
  print_endline "    the on-vs-off acceptance verdict.";
  print_endline
    "  shard: shard scaling sweep — prefix-disjoint key families over";
  print_endline
    "    1/2/4 LVI shards (one replicated lock cluster each), peak";
  print_endline
    "    sustainable throughput per shard count, a cross-shard transfer";
  print_endline
    "    mix at 4 shards, and the one-round-trip / >=3x scaling";
  print_endline "    acceptance verdicts.";
  print_endline
    "  analyze: f^rw predict cost raw vs. residual-optimized, and the";
  print_endline
    "    read-only LVI fast-path latency ablation (on/off, singleton and";
  print_endline "    replicated).";
  print_endline
    "  chaos: fault-plan campaign over {social,forum} x \
     {singleton,replicated};";
  print_endline
    "    --seeds N   seeds per grid cell (default 50 = 200 sweeps total;";
  print_endline
    "                'make check' smoke-tests with --seeds 20); each seed";
  print_endline
    "    runs every default template (followup-storm, message-chaos,";
  print_endline
    "    cache-loss, server-restart, partition-heal, raft-churn,";
  print_endline
    "    everything), then a protocol mutation is injected to prove the";
  print_endline "    invariant oracle catches and shrinks real bugs.";
  print_endline
    "    --deployment SPEC  run every cell with these deployment features:";
  print_endline
    "                'paper' (default) or a comma-separated list of";
  print_endline
    "                replicated, batched (every batching knob and followup";
  print_endline
    "                coalescing), propagating, leased and sharded=N (N >= 2).";
  print_endline
    "                Each feature has a chaos template that attacks it:";
  print_endline
    "                propagation-chaos (lost/duplicated/delayed";
  print_endline
    "                cache_update messages), lease-chaos (the same for";
  print_endline
    "                lease_revoke, plus cache wipes and late cache updates)";
  print_endline
    "                and shard-chaos (delayed prepares, dropped decisions,";
  print_endline
    "                shard restarts, leader crashes) under the";
  print_endline "                cross-atomicity oracle.";
  print_endline
    "  --json: additionally write each measurement-returning experiment's";
  print_endline
    "    results as BENCH_<experiment>.json (medians, p99, throughput,";
  print_endline "    acceptance flags, request scale).";
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
  let emit experiment measurements =
    if !json then begin
      let config = [ ("scale", Printf.sprintf "%g" scale) ] in
      let path = Experiments.Runner.write_json ~experiment ~config measurements in
      Printf.printf "wrote %s\n" path
    end
  in
  let eval_data = lazy (Experiments.Figures.collect_eval ~scale ()) in
  List.iter
    (fun target ->
      match target with
      | "all" ->
          Experiments.Figures.all ~scale ();
          micro ()
      | "fig1" -> emit "fig1" (Experiments.Figures.fig1 ~scale ())
      | "table1" -> emit "table1" (Experiments.Figures.table1 ())
      | "table2" -> ignore (Experiments.Figures.table2 ())
      | "fig4" -> ignore (Experiments.Figures.fig4 (Lazy.force eval_data))
      | "fig5" -> ignore (Experiments.Figures.fig5 (Lazy.force eval_data))
      | "fig6" -> ignore (Experiments.Figures.fig6 (Lazy.force eval_data))
      | "repl" -> ignore (Experiments.Figures.replication ())
      | "sensitivity" -> ignore (Experiments.Figures.sensitivity ())
      | "skew" -> ignore (Experiments.Figures.skew ())
      | "throughput" -> ignore (Experiments.Figures.throughput ())
      | "bootstrap" -> ignore (Experiments.Figures.bootstrap ())
      | "cost" -> ignore (Experiments.Figures.cost ())
      | "ablation" -> ignore (Experiments.Figures.ablation ~scale ())
      | "analyze" -> Experiments.Analyze_exp.run ~scale ()
      | "phases" -> ignore (Experiments.Figures.phases ~scale ())
      | "batch" -> emit "batch" (Experiments.Batch_exp.run ~scale ())
      | "propagate" -> emit "propagate" (Experiments.Propagate_exp.run ~scale ())
      | "lease" -> emit "lease" (Experiments.Lease_exp.run ~scale ())
      | "shard" -> emit "shard" (Experiments.Shard_exp.run ~scale ())
      | "chaos" ->
          let violations =
            Experiments.Chaos_exp.run ~seeds:!seeds ~deployment:!deployment ()
          in
          if violations > 0 then exit 2
      | "micro" -> micro ()
      | _ -> usage ())
    targets
