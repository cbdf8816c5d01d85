(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and the feature experiments (see DESIGN.md's experiment
   index).

     dune exec bench/main.exe                 # the paper's evaluation
     dune exec bench/main.exe -- fig4         # one experiment
     dune exec bench/main.exe -- --scale 1 fig4   # quick 2k-request run
     dune exec bench/main.exe -- --json shard # also write BENCH_shard.json *)

let usage () =
  print_endline "usage: main.exe [--scale F] [--json] [TARGET...]";
  let line name doc = Printf.printf "  %-12s%s\n" name doc in
  line "all" "every target from fig1 to phases (the default)";
  (* Names and docs do not depend on the scale. *)
  List.iter
    (fun (t : Experiments.Targets.t) -> line t.name t.doc)
    (Experiments.Targets.paper ~scale:1.0
    @ Experiments.Targets.features ~scale:1.0);
  print_string
    "  analyze     f^rw predict cost raw vs. residual-optimized, and the\n\
    \              read-only LVI fast-path latency ablation (on/off,\n\
    \              singleton and replicated)\n\
    \  --json: also write each target's measurements to BENCH_<target>.json\n\
    \    (medians, p99, throughput, acceptance flags, scale).\n";
  exit 1

let () =
  (* Default 5.0 reproduces the paper's 10,000 requests per deployment. *)
  let scale = ref 5.0 in
  let json = ref false in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> scale := f
        | _ -> usage ());
        parse rest
    | arg :: rest ->
        targets := arg :: !targets;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let targets = if !targets = [] then [ "all" ] else List.rev !targets in
  let scale = !scale in
  (* One list for the whole invocation, so that Figures 4-6 collect
     their evaluation once however many of them are named. *)
  let paper = Experiments.Targets.paper ~scale in
  let all = paper @ Experiments.Targets.features ~scale in
  let run (t : Experiments.Targets.t) =
    let measurements = t.run () in
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
      | "all" -> List.iter run paper
      | "analyze" -> Experiments.Analyze_exp.run ~scale ()
      | name -> (
          match
            List.find_opt
              (fun (t : Experiments.Targets.t) -> t.name = name)
              all
          with
          | Some t -> run t
          | None -> usage ()))
    targets
