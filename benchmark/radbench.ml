(* radbench: the repository's benchmark on its two clocks.

     radbench run --workload geo-social --seed 42          # end to end
     radbench run --workload all --trace                   # per layer
     radbench run --smoke                                  # tier-1 smoke
     radbench compare BASE NEW                             # verdicts

   Every run prints its metrics with units, its correctness gates, and as
   its last line one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   It exits non-zero when a gate fails. See benchmark/README.md. *)

open Cmdliner

let value_json = function Bench.Value x -> Json.Num x | Refused _ -> Json.Num 0.0

let unit_of name = match Metric.find name with Some d -> d.unit_ | None -> ""

(* The metrics of the last line: BENCHMARK.json's list for the mode. *)
let headline_of (r : Bench.report) =
  let names = if r.traced then Metric.headline_per_layer else Metric.headline_end_to_end in
  List.filter_map
    (fun name ->
      Option.map
        (fun v -> (name, Json.Obj [ ("value", value_json v); ("unit", Json.Str (unit_of name)) ]))
        (List.assoc_opt name r.values))
    names

let correct (r : Bench.report) = List.for_all (fun (g : Bench.gate) -> g.ok) r.gates

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics);
       ])

let print_report ~seed (r : Bench.report) =
  Printf.printf "radbench %s  seed %d  %s\n" r.workload seed
    (if r.traced then "traced (per layer)" else "untraced (end to end)");
  Printf.printf "  %-34s %14.3f  (machine drift diagnostic)\n" "calib.mops_per_cpu_s" r.calib;
  List.iter
    (fun (name, v) ->
      let clock =
        match Metric.find name with
        | Some { clock = Real; _ } -> "real"
        | _ -> "virtual"
      in
      match v with
      | Bench.Value x ->
          Printf.printf "  %-34s %14.4f %-6s %s\n" name x (unit_of name) clock
      | Refused why -> Printf.printf "  %-34s %14s %-6s (%s)\n" name "refused" (unit_of name) why)
    r.values;
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) r.notes;
  List.iter
    (fun (g : Bench.gate) ->
      Printf.printf "  gate %-18s %s  %s\n" g.gate (if g.ok then "ok  " else "FAIL") g.detail)
    r.gates;
  Option.iter (Printf.printf "  trace file: %s\n") r.trace_file

(* A saved result: everything [compare] needs from one run. *)
let save_result ~dir ~seed (r : Bench.report) =
  let rec path k =
    let p =
      Filename.concat dir
        (Printf.sprintf "%s-s%d-%s-%d.json" r.workload seed
           (if r.traced then "layers" else "e2e") k)
    in
    if Sys.file_exists p then path (k + 1) else p
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str r.workload);
        ("seed", Json.Num (float_of_int seed));
        ("traced", Json.Bool r.traced);
        ("calib_mops_per_cpu_s", Json.Num r.calib);
        ("correct", Json.Bool (correct r));
        ( "metrics",
          Json.Obj
            (List.filter_map
               (fun (name, v) ->
                 match v with
                 | Bench.Value x -> Some (name, Json.Obj [ ("value", Json.Num x); ("unit", Json.Str (unit_of name)) ])
                 | Refused _ -> None)
               r.values) );
      ]
  in
  let p = path 0 in
  let oc = open_out p in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

let run_one ~sizes ~seed ~trace ~out (w : Workloads.t) =
  if trace then Bench.traced w ~sizes ~seed ~out else Bench.untraced w ~sizes ~seed

(* --- workload all: one fresh process per workload ------------------------ *)

let child_args ~seed ~trace ~out ~save name =
  [ "run"; "--workload"; name; "--seed"; string_of_int seed; "--trace"; (if trace then "1" else "0"); "--out"; out ]
  @ match save with Some d -> [ "--save"; d ] | None -> []

(* Run a child, echo its output, and return its last line parsed. *)
let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if !last <> "" then print_endline !last;
       last := line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let parsed = try Some (Json.of_string !last) with Json.Parse_error _ -> None in
  if parsed = None && !last <> "" then print_endline !last;
  (status = Unix.WEXITED 0, parsed)

let run_all ~seed ~trace ~out ~save =
  let results =
    List.map
      (fun (w : Workloads.t) -> (w.name, spawn (child_args ~seed ~trace ~out ~save w.name)))
      Workloads.all
  in
  let num k j = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_num) in
  let ok = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (name, (exited_ok, parsed)) ->
      match parsed with
      | None -> ok := false
      | Some j ->
          if not exited_ok || Json.member "correct" j <> Some (Json.Bool true) then ok := false;
          attempted := !attempted + int_of_float (num "attempted" j);
          failed := !failed + int_of_float (num "failed" j);
          (match Json.member "metrics" j with
          | Some (Json.Obj l) -> metrics := !metrics @ List.map (fun (k, v) -> (name ^ "/" ^ k, v)) l
          | _ -> ()))
    results;
  print_endline (result_line ~correct:!ok ~attempted:!attempted ~failed:!failed !metrics);
  !ok

(* --- smoke ---------------------------------------------------------------- *)

(* Every workload at 1/100 of its duration with a two-rung ladder, both
   untraced and traced, in this process; then BENCHMARK.json is checked
   against the metrics the reports carry. The reports are printed only
   when something failed. *)
let run_smoke ~seed ~out ~bench_file =
  let reports =
    List.concat_map
      (fun w ->
        let w = Workloads.smoke w in
        List.map
          (fun trace -> run_one ~sizes:Bench.smoke ~seed ~trace ~out w)
          [ false; true ])
      Workloads.all
  in
  let problems = Benchmark_json.check ~file:bench_file ~reports in
  let gates_ok = List.for_all correct reports in
  if not (gates_ok && problems = []) then List.iter (print_report ~seed) reports;
  List.iter (Printf.printf "  BENCHMARK.json: %s\n") problems;
  Printf.printf "smoke: %d reports, gates %s, BENCHMARK.json %s\n" (List.length reports)
    (if gates_ok then "ok" else "FAILED")
    (if problems = [] then "matches" else "MISMATCH");
  let attempted = List.fold_left (fun a (r : Bench.report) -> a + r.attempted) 0 reports in
  let failed = List.fold_left (fun a (r : Bench.report) -> a + r.failed) 0 reports in
  let ok = gates_ok && problems = [] in
  print_endline (result_line ~correct:ok ~attempted ~failed []);
  ok

(* --- command line ----------------------------------------------------------- *)

let run workload seed seconds trace smoke out save bench_file =
  let ensure d = if not (Sys.file_exists d) then Unix.mkdir d 0o755 in
  if trace || smoke then ensure out;
  Option.iter ensure save;
  let t0 = Unix.gettimeofday () in
  let ok =
    if smoke then run_smoke ~seed ~out ~bench_file
    else if workload = "all" then run_all ~seed ~trace ~out ~save
    else
      match Workloads.find workload with
      | None ->
          Printf.eprintf "radbench: unknown workload %S (expected all or one of %s)\n" workload
            (String.concat ", " Workloads.names);
          false
      | Some w ->
          let r = run_one ~sizes:Bench.full ~seed ~trace ~out w in
          print_report ~seed r;
          Option.iter (fun dir -> save_result ~dir ~seed r) save;
          print_endline
            (result_line ~correct:(correct r) ~attempted:r.attempted ~failed:r.failed (headline_of r));
          correct r
  in
  let took = Unix.gettimeofday () -. t0 in
  if seconds > 0 && took > 2.0 *. float_of_int seconds then
    Printf.eprintf "radbench: run took %.1f s, over twice the %d s budget\n" took seconds;
  if ok then 0 else 1

let trace_conv = Arg.enum [ ("0", false); ("1", true) ]

let run_cmd =
  let workload =
    Arg.(value & opt string "all" & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:("Workload to run: all, or one of " ^ String.concat ", " Workloads.names ^ "."))
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Seed every input is generated from.") in
  let seconds =
    Arg.(value & opt int 0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Measuring-time budget. The work in a run is fixed by the workload, so \
                 this only warns when a run takes over twice as long.")
  in
  let trace =
    Arg.(value & opt ~vopt:true trace_conv false & info [ "trace" ] ~docv:"0|1"
           ~doc:"Traced run: per-layer metrics instead of end-to-end ones.")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Every workload at 1/100 scale, untraced and traced.") in
  let out =
    Arg.(value & opt string "radbench-out" & info [ "out" ] ~docv:"DIR"
           ~doc:"Where traced runs write trace-<workload>.json.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR"
           ~doc:"Also write each run's result into DIR, for $(b,compare).")
  in
  let bench_file =
    Arg.(value & opt string "BENCHMARK.json" & info [ "bench" ] ~docv:"FILE"
           ~doc:"BENCHMARK.json to check the smoke run against.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run workloads and print their metrics.")
    Term.(const run $ workload $ seed $ seconds $ trace $ smoke $ out $ save $ bench_file)

let compare_cmd =
  let side n docv =
    Arg.(required & pos n (some string) None & info [] ~docv
           ~doc:"A directory of saved results, a result file, or a comma-separated list of them.")
  in
  let bench_file =
    Arg.(value & opt string "BENCHMARK.json" & info [ "bench" ] ~docv:"FILE"
           ~doc:"BENCHMARK.json to take the bounds from (built-in bounds when absent).")
  in
  let layers = Arg.(value & flag & info [ "layers" ] ~doc:"Also compare per-layer metrics.") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two sets of saved runs, metric by metric.")
    Term.(const Compare.main $ side 0 "BASE" $ side 1 "NEW" $ bench_file $ layers)

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "radbench" ~doc:"Radical's two-clock benchmark") [ run_cmd; compare_cmd ]))
