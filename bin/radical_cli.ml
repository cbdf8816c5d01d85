(* Command-line interface to the Radical reproduction. The paper's
   tables and figures are regenerated by bench/main.exe.

     radical_cli run --app APP --system SYS [--requests N] [--seed N]
         one deployment run with a latency summary
     radical_cli inspect FUNCTION
         show a handler's source, its compiled module, and the derived
         f^rw with its classification *)

open Cmdliner

(* A reporter that stamps each protocol event with the virtual clock. *)
let sim_reporter () =
  let report _src level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        let now = try Sim.Engine.now () with Sim.Engine.Not_running -> 0.0 in
        Format.kfprintf
          (fun f ->
            Format.pp_print_newline f ();
            over ();
            k ())
          Format.std_formatter
          ("[%8.1f ms] [%5s] " ^^ fmt)
          now
          (Logs.level_to_string (Some level)))
  in
  { Logs.report }

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print protocol-event logs.")

let deployment_arg ~doc =
  let spec =
    Arg.conv'
      ( Radical.Deployment.of_string,
        fun ppf d -> Format.pp_print_string ppf (Radical.Deployment.to_string d)
      )
  in
  Arg.(value & opt spec [] & info [ "deployment" ] ~docv:"SPEC" ~doc)

let deployment_doc =
  "$(b,paper) (the default), or a comma-separated list of $(b,replicated) \
   (Raft-replicated LVI server), $(b,batched) (every batching knob and \
   followup coalescing), $(b,propagating) (asynchronous cache-update \
   propagation), $(b,leased) (read leases) and $(b,sharded=)$(i,N) (the \
   LVI service hash-sharded $(i,N) >= 2 ways)."


let apps =
  List.map
    (fun (app : Apps.Bundle.app) -> (app.name, app))
    Apps.Bundle.[ social; hotel; forum; simple ]

let systems =
  [
    ("radical", Experiments.Runner.Radical);
    ("central", Experiments.Runner.Central);
    ("local", Experiments.Runner.Local);
    ("geo", Experiments.Runner.Geo Net.Location.[ va; oh; oregon ]);
    ("naive-edge", Experiments.Runner.Naive_edge);
    ("validate-per-read", Experiments.Runner.Validate_per_read);
  ]

let run_cmd =
  let app_arg =
    Arg.(required & opt (some (enum apps)) None & info [ "app" ] ~docv:"APP"
           ~doc:"Application: social, hotel, forum, or simple.")
  in
  let system_arg =
    Arg.(value & opt (enum systems) Experiments.Runner.Radical
         & info [ "system" ] ~docv:"SYS"
             ~doc:("Deployment: " ^ String.concat ", " (List.map fst systems)
                   ^ "."))
  in
  let requests =
    Arg.(value & opt int 2000 & info [ "requests" ] ~docv:"N"
           ~doc:"Total request count across all clients.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run verbose app system requests seed =
    setup_logs verbose;
    let requests_per_client = max 1 (requests / 50) in
    let r = Experiments.Runner.run ~seed ~requests_per_client system app in
    Printf.printf "%d samples, %d errors\n"
      (List.length r.samples) r.errors;
    (match r.validation_rate with
    | Some v -> Printf.printf "validation success rate: %.1f%%\n" (v *. 100.0)
    | None -> ());
    Metrics.Table.print
      ~header:[ "scope"; "median (ms)"; "p99 (ms)" ]
      ~rows:
        ([ [ "overall";
             Metrics.Table.ms (Experiments.Runner.median_of r);
             Metrics.Table.ms (Experiments.Runner.p99_of r) ] ]
        @ List.map
            (fun (loc, s) ->
              [ "loc " ^ loc;
                Metrics.Table.ms (Metrics.Stats.median s);
                Metrics.Table.ms (Metrics.Stats.p99 s) ])
            (Experiments.Runner.by_loc r)
        @ List.map
            (fun (fn, s) ->
              [ fn;
                Metrics.Table.ms (Metrics.Stats.median s);
                Metrics.Table.ms (Metrics.Stats.p99 s) ])
            (Experiments.Runner.by_fn r));
    print_newline ();
    print_endline "latency distribution (ms):";
    Metrics.Table.print_histogram
      (Metrics.Stats.histogram (Experiments.Runner.overall r) ~buckets:12)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one deployment and print a latency summary")
    Term.(const run $ verbose_arg $ app_arg $ system_arg $ requests $ seed)

let inspect_cmd =
  let fn_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FUNCTION")
  in
  let run fn_name =
    match
      List.find_opt
        (fun (f : Fdsl.Ast.func) -> f.fn_name = fn_name)
        Apps.Catalog.all_functions
    with
    | None ->
        Printf.eprintf "unknown function %S; try one of:\n  %s\n" fn_name
          (String.concat ", "
             (List.map (fun (f : Fdsl.Ast.func) -> f.fn_name)
                Apps.Catalog.all_functions));
        exit 1
    | Some f -> (
        Format.printf "--- source ---@.%a@.@." Fdsl.Ast.pp_func f;
        let schema =
          List.concat
            [
              Apps.Social.schema; Apps.Hotel.schema; Apps.Forum.schema;
              Apps.Imageboard.schema; Apps.Projectmgmt.schema;
            ]
        in
        (match Fdsl.Typecheck.check ~schema f with
        | Ok t -> Format.printf "inferred result type: %a@.@." Fdsl.Types.pp t
        | Error e ->
            Format.printf "type error: %a@.@." Fdsl.Typecheck.pp_error e);
        let m = Fdsl.Compile.compile f in
        let entry = Wasm.Wmodule.func m 0 in
        Format.printf "--- compiled module ---@.";
        Format.printf "params: %d, locals: %d, imports: %s@.@."
          entry.n_params entry.n_locals
          (String.concat ", " m.imports);
        (match Wasm.Validate.check m with
        | Ok () -> Format.printf "determinism validation: OK@.@."
        | Error e ->
            Format.printf "determinism validation: REJECTED (%a)@.@."
              Wasm.Validate.pp_error e);
        match Analyzer.Derive.derive f with
        | Error e ->
            Format.printf "--- f^rw ---@.unanalyzable: %a@." Analyzer.Derive.pp_error e
        | Ok d ->
            Format.printf "--- derived f^rw (%a) ---@.%a@."
              Analyzer.Derive.pp_classification d.classification
              Fdsl.Ast.pp_func d.rw_func)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show a handler, its module, and its f^rw")
    Term.(const run $ fn_name)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Handler source file (.rdl).")
  in
  let run file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Fdsl.Parse.program source with
    | Error e ->
        Format.printf "%s: parse error: %a@." file Fdsl.Parse.pp_error e;
        exit 1
    | Ok funcs ->
        let failures = ref 0 in
        List.iter
          (fun (f : Fdsl.Ast.func) ->
            Format.printf "fn %s(%s)@." f.fn_name (String.concat ", " f.params);
            (match Fdsl.Typecheck.check f with
            | Ok t -> Format.printf "  type: ... -> %a@." Fdsl.Types.pp t
            | Error e ->
                incr failures;
                Format.printf "  TYPE ERROR: %a@." Fdsl.Typecheck.pp_error e);
            match Fdsl.Compile.compile f with
            | exception Fdsl.Compile.Unsupported m ->
                incr failures;
                Format.printf "  COMPILE ERROR: %s@." m
            | m -> (
                (match Wasm.Validate.check_all m with
                | Ok () ->
                    Format.printf "  deterministic: yes (blob %d bytes)@."
                      (Wasm.Codec.blob_size m)
                | Error e ->
                    incr failures;
                    Format.printf "  VALIDATION ERROR: %a@."
                      Wasm.Validate.pp_error e);
                match Analyzer.Derive.derive f with
                | Ok d ->
                    Format.printf "  f^rw: %a@."
                      Analyzer.Derive.pp_classification d.classification
                | Error _ ->
                    Format.printf
                      "  f^rw: unanalyzable (will run near storage)@."))
          funcs;
        Format.printf "%d function(s), %d problem(s)@." (List.length funcs)
          !failures;
        if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse, typecheck, compile and analyze a handler source file")
    Term.(const run $ file)

let trace_gen_cmd =
  let app_arg =
    Arg.(value & opt (enum apps) Apps.Bundle.social
         & info [ "app" ] ~docv:"APP")
  in
  let rate = Arg.(value & opt float 100.0 & info [ "rate" ] ~docv:"REQ_PER_S") in
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"SECONDS")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let out =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE")
  in
  let run app rate duration seed out =
    let trace =
      Experiments.Trace.generate ~seed ~rate ~duration:(duration *. 1000.0) app
    in
    Experiments.Trace.save trace out;
    Printf.printf "wrote %d requests to %s\n" (List.length trace) out
  in
  Cmd.v
    (Cmd.info "trace-gen" ~doc:"Generate a request trace file")
    Term.(const run $ app_arg $ rate $ duration $ seed $ out)

let trace_replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE_FILE")
  in
  let app_arg =
    Arg.(value & opt (enum apps) Apps.Bundle.social
         & info [ "app" ] ~docv:"APP")
  in
  let system_arg =
    Arg.(value & opt (enum systems) Experiments.Runner.Radical
         & info [ "system" ] ~docv:"SYS")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run file app system seed =
    match Experiments.Trace.load file with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit 1
    | Ok trace ->
        let r = Experiments.Trace.replay ~seed system app trace in
        Printf.printf "%d requests replayed, %d errors\n"
          (List.length r.samples) r.errors;
        (match r.validation_rate with
        | Some v -> Printf.printf "validation success: %.1f%%\n" (v *. 100.0)
        | None -> ());
        Metrics.Table.print
          ~header:[ "metric"; "ms" ]
          ~rows:
            [
              [ "median"; Metrics.Table.ms (Experiments.Runner.median_of r) ];
              [ "p99"; Metrics.Table.ms (Experiments.Runner.p99_of r) ];
            ]
  in
  Cmd.v
    (Cmd.info "trace-replay"
       ~doc:"Replay a trace file against a deployment (open loop)")
    Term.(const run $ file $ app_arg $ system_arg $ seed)

let trace_cmd =
  let app_arg =
    Arg.(value & opt (enum apps) Apps.Bundle.social
         & info [ "app" ] ~docv:"APP"
             ~doc:"Application: social, hotel, forum, or simple.")
  in
  let system_arg =
    Arg.(value & opt (enum systems) Experiments.Runner.Radical
         & info [ "system" ] ~docv:"SYS"
             ~doc:"Deployment; only radical produces request span trees.")
  in
  let requests =
    Arg.(value & opt int 500 & info [ "requests" ] ~docv:"N"
           ~doc:"Total request count across all clients.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K"
           ~doc:"Print the K slowest request traces as span trees.")
  in
  let deployment =
    deployment_arg
      ~doc:
        ("Deploy Radical with these features so their histograms fill \
          up: $(b,replicated,batched) fills the raft_entry, \
          lock_persist, followup and admission rows; $(b,propagating) \
          the propagation and per-site prop_lag rows; $(b,leased) the \
          lease_grant/lease_revoke/lease_wait rows and the \
          lease_local/lease_settle phases; $(b,sharded=)$(i,N) the \
          per-shard load table and shard_prepare phases. " ^ deployment_doc)
  in
  let system =
    let with_deployment system deployment =
      match (system, deployment) with
      | system, [] -> `Ok system
      | Experiments.Runner.Radical, features ->
          `Ok
            (Experiments.Runner.Radical_with
               (Radical.Deployment.config features))
      | _ -> `Error (true, "--deployment applies only to --system radical")
    in
    Term.(ret (const with_deployment $ system_arg $ deployment))
  in
  let run verbose app system requests seed top =
    setup_logs verbose;
    let tracer = Metrics.Tracer.create () in
    let requests_per_client = max 1 (requests / 50) in
    let r = Experiments.Runner.run ~seed ~requests_per_client ~tracer system app in
    Printf.printf "%d samples, %d errors, %d traces\n" (List.length r.samples)
      r.errors
      (Metrics.Tracer.trace_count tracer);
    print_newline ();
    print_endline (Metrics.Tracer.phases_json tracer);
    let stat_rows stats =
      List.map
        (fun (label, s) ->
          [
            label;
            string_of_int (Metrics.Stats.count s);
            Printf.sprintf "%.2f" (Metrics.Stats.mean s);
            Printf.sprintf "%.2f" (Metrics.Stats.median s);
            Printf.sprintf "%.2f" (Metrics.Stats.p99 s);
          ])
        stats
    in
    (match stat_rows (Metrics.Tracer.batch_stats tracer) with
    | [] -> ()
    | rows ->
        print_endline "\n--- batch sizes (commands per flush) ---";
        Metrics.Table.print
          ~header:[ "label"; "batches"; "mean"; "median"; "p99" ]
          ~rows);
    (match stat_rows (Metrics.Tracer.queue_stats tracer) with
    | [] -> ()
    | rows ->
        print_endline "\n--- queueing delay (ms before flush) ---";
        Metrics.Table.print
          ~header:[ "label"; "waits"; "mean"; "median"; "p99" ]
          ~rows);
    (match Metrics.Tracer.shard_stats tracer with
    | [] -> ()
    | per_shard ->
        print_endline "\n--- per-shard load ---";
        Metrics.Table.print
          ~header:[ "shard"; "requests"; "cross-shard"; "cross %" ]
          ~rows:
            (List.map
               (fun (shard, (reqs, cross)) ->
                 [
                   string_of_int shard;
                   string_of_int reqs;
                   string_of_int cross;
                   Printf.sprintf "%.1f%%"
                     (if reqs = 0 then 0.0
                      else 100.0 *. float_of_int cross /. float_of_int reqs);
                 ])
               per_shard));
    (match Metrics.Tracer.slowest ~k:top tracer with
    | [] -> ()
    | spans ->
        Printf.printf "\n--- %d slowest request(s) ---\n" (List.length spans);
        List.iter
          (fun sp -> Format.printf "@.%a@." Metrics.Span.pp sp)
          spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced deployment: per-phase JSON breakdown, batching \
             histograms, plus the slowest request span trees")
    Term.(const run $ verbose_arg $ app_arg $ system $ requests $ seed $ top)

let timeline_cmd =
  let app_arg =
    Arg.(value & opt (enum apps) Apps.Bundle.social
         & info [ "app" ] ~docv:"APP")
  in
  let from_arg =
    Arg.(value
         & opt (enum (List.map (fun l -> (l, l)) Net.Location.user_locations))
             Net.Location.jp
         & info [ "from" ] ~docv:"LOC" ~doc:"Client location.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run (app : Apps.Bundle.app) from seed =
    Logs.set_reporter (sim_reporter ());
    Logs.set_level (Some Logs.Debug);
    let engine = Sim.Engine.create ~seed () in
    Sim.Engine.run engine (fun () ->
        let rng = Sim.Engine.rng () in
        let net =
          Net.Transport.create ~jitter_sigma:0.0 ~rng:(Sim.Rng.split rng) ()
        in
        let data = app.seed (Sim.Rng.split rng) in
        let fw = Radical.Framework.create ~net ~funcs:app.funcs ~data () in
        let fn, args = app.new_gen () (Sim.Rng.split rng) in
        Printf.printf "--- one %s request (%s) from %s ---\n" app.name fn from;
        let o = Radical.Framework.invoke fw ~from fn args in
        Printf.printf "--- client answered in %.1f ms via the %s path ---\n"
          o.latency
          (match o.path with
          | Radical.Runtime.Speculative -> "speculative"
          | Radical.Runtime.Backup -> "backup"
          | Radical.Runtime.Fallback -> "fallback"
          | Radical.Runtime.Local -> "local");
        Sim.Engine.sleep 5000.0;
        Radical.Framework.stop fw)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Narrate one request's protocol events with virtual timestamps")
    Term.(const run $ app_arg $ from_arg $ seed)

let chaos_cmd =
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N"
           ~doc:"Seeds to sweep (per app/mode cell when no --app is given).")
  in
  let app_arg =
    Arg.(value & opt (some (enum apps)) None & info [ "app" ] ~docv:"APP"
           ~doc:"Sweep one application only (default: the full social/forum \
                 grid, each deployment also Raft-replicated, plus the \
                 protocol-mutation demonstration).")
  in
  let deployment =
    deployment_arg
      ~doc:
        ("Deploy these features; each has a chaos template that attacks \
          it (propagation-chaos, lease-chaos, shard-chaos under the \
          cross-atomicity oracle). " ^ deployment_doc)
  in
  let template_names =
    List.map
      (fun (t : Chaos.Plan.template) -> (t.t_name, t))
      Chaos.Plan.default_templates
  in
  let template_arg =
    Arg.(value & opt (some (enum template_names)) None
         & info [ "template" ] ~docv:"NAME"
             ~doc:(Printf.sprintf "Sweep a single plan template (%s); \
                                   needs --app."
                     (String.concat ", " (List.map fst template_names))))
  in
  let mutate =
    Arg.(value & flag & info [ "mutate" ]
           ~doc:"Inject the Skip_reexecution protocol mutation: the oracle \
                 must catch it and the failing plan is shrunk to a minimal \
                 reproduction. Needs --app.")
  in
  let run verbose seeds app deployment template mutate =
    setup_logs verbose;
    match app with
    | None when template <> None || mutate ->
        `Error (true, "--template and --mutate need --app")
    | None ->
        if Experiments.Chaos_exp.run ~seeds ~deployment () > 0 then exit 2;
        `Ok ()
    | Some bundle ->
        let config =
          {
            Chaos.Campaign.default_config with
            deployment =
              Radical.Deployment.config
                ~base:Chaos.Campaign.default_config.deployment deployment;
            mutation =
              (if mutate then Some Radical.Server.Skip_reexecution else None);
          }
        in
        let templates =
          match template with
          | None -> Chaos.Plan.default_templates
          | Some t -> [ t ]
        in
        let summary = Chaos.Campaign.sweep ~config ~templates ~seeds bundle in
        Format.printf "%a@." Chaos.Campaign.pp_summary summary;
        (match summary.failures with
        | [] -> ()
        | c :: _ ->
            let shrunk =
              Chaos.Campaign.shrink ~config ~seed:c.Chaos.Campaign.c_seed bundle
                c.Chaos.Campaign.c_plan
            in
            Format.printf "minimal reproduction (seed %d):@.%a@."
              c.Chaos.Campaign.c_seed Chaos.Plan.pp shrunk;
            if not mutate then exit 2);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep fault plans against live deployments and judge the \
             survivors with the invariant oracle")
    Term.(ret (const run $ verbose_arg $ seeds $ app_arg $ deployment
               $ template_arg $ mutate))

let analyze_cmd =
  let run () = print_string (Apps.Report.render ()) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the whole-catalog key-shape report: per-function \
             classifications (raw vs. residual-optimized), conflict \
             matrices, lock-order hazards, and manual f^rw checks")
    Term.(const run $ const ())

let certify_cmd =
  let run () =
    let report, all_ok = Apps.Report.render_certify () in
    print_string report;
    if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Certify every catalog function's f^rw against its compiled \
             bytecode: re-derive read/write key shapes from the WASM \
             instruction stream and prove them subsumed by the registered \
             prediction. Exits non-zero if any function is rejected")
    Term.(const run $ const ())

let () =
  let doc = "Radical (SOSP '25) reproduction: run experiments and deployments" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "radical_cli" ~doc)
          [
            run_cmd; inspect_cmd; check_cmd; analyze_cmd;
            certify_cmd; timeline_cmd; trace_cmd; trace_gen_cmd;
            trace_replay_cmd; chaos_cmd;
          ]))
