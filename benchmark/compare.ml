(* [radbench compare BASE NEW]: one row per workload and metric with each
   side's median and quartiles, the bound, and a verdict.

   - unresolved: the base's own spread (quartile distance over median) is
     wider than the bound, and not every new run is better (or worse)
     than every base run;
   - worse: the new median is worse than the base median by more than
     the bound;
   - better: the new side wins at least 9/10 of all base-new pairs and
     the medians differ by more than the base's quartile distance;
   - unchanged: otherwise.

   A real-clock move in the same direction as the machine's own drift
   (the calibration loop) of at least half its size is flagged: the
   machine, not the code, may explain it. The exit code is non-zero when
   an end-to-end metric is worse. *)

type side = {
  values : (string * string, float list) Hashtbl.t; (* (workload, metric) *)
  calib : (string, float list) Hashtbl.t; (* per workload *)
}

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let files_of spec =
  List.concat_map
    (fun p ->
      if Sys.file_exists p && Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (Filename.concat p)
      else [ p ])
    (String.split_on_char ',' spec)

let load spec =
  let s = { values = Hashtbl.create 64; calib = Hashtbl.create 8 } in
  List.iter
    (fun file ->
      let doc = Json.of_file file in
      let str k = Option.bind (Json.member k doc) Json.to_str in
      let num k = Option.bind (Json.member k doc) Json.to_num in
      match str "workload" with
      | None -> ()
      | Some w -> (
          Option.iter (push s.calib w) (num "calib_mops_per_cpu_s");
          match Json.member "metrics" doc with
          | Some (Json.Obj l) ->
              List.iter
                (fun (m, v) ->
                  Option.iter (push s.values (w, m))
                    (Option.bind (Json.member "value" v) Json.to_num))
                l
          | _ -> ()))
    (files_of spec);
  s

(* Bounds from BENCHMARK.json where it lists the metric, else built in. *)
let bounds_from file =
  match Json.of_file file with
  | exception _ -> []
  | doc ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Json.member "name" e) Json.to_str,
              Option.bind (Json.member "bound" e) Json.to_num )
          with
          | Some n, Some b -> Some (n, Metric.Rel b)
          | _ -> None)
        (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" doc)))

(* Signed relative change towards "worse". *)
let worse_by (d : Metric.def) ~base ~next =
  let delta = match d.better with Lower -> next -. base | Higher -> base -. next in
  if base = 0.0 then (if delta = 0.0 then 0.0 else Float.copy_sign infinity delta)
  else delta /. Float.abs base

let better_than (d : Metric.def) a b =
  match d.better with Lower -> a < b | Higher -> a > b

let verdict (d : Metric.def) bound base next =
  let q1, mb, q3 = Metric.quartiles base in
  let _, mn, _ = Metric.quartiles next in
  let iqr = q3 -. q1 in
  let all_better = List.for_all (fun n -> List.for_all (better_than d n) base) next in
  let all_worse = List.for_all (fun n -> List.for_all (fun b -> better_than d b n) base) next in
  let within rel_or_abs =
    match rel_or_abs with
    | Metric.Rel r -> worse_by d ~base:mb ~next:mn <= r
    | Abs a -> (match d.better with Lower -> mn -. mb | Higher -> mb -. mn) <= a
    | Unbounded -> true
  in
  let spread_too_wide =
    match bound with
    | Metric.Rel r -> mb <> 0.0 && iqr /. Float.abs mb > r
    | Abs a -> iqr > a
    | Unbounded -> false
  in
  let pairs = List.length base * List.length next in
  let wins =
    List.fold_left
      (fun acc n -> acc + List.length (List.filter (fun b -> better_than d n b) base))
      0 next
  in
  if spread_too_wide && not (all_better || all_worse) then "unresolved"
  else if all_worse && spread_too_wide then "worse"
  else if not (within bound) then "worse"
  else if
    pairs > 0
    && 10 * wins >= 9 * pairs
    && Float.abs (mn -. mb) > iqr
  then "better"
  else "unchanged"

let speed_like (d : Metric.def) =
  d.clock = Metric.Real && not (List.mem d.unit_ [ "MB"; "count"; "words" ])

(* Did the machine drift the same way, by at least half as much? *)
let machine_explains (d : Metric.def) ~calib_base ~calib_new ~base ~next =
  if not (speed_like d) || calib_base <= 0.0 || base <= 0.0 || next <= 0.0 then false
  else
    let machine = log (calib_new /. calib_base) in
    let code = match d.better with Higher -> log (next /. base) | Lower -> log (base /. next) in
    machine *. code > 0.0 && Float.abs machine >= 0.5 *. Float.abs code

let fmt_side l =
  let q1, m, q3 = Metric.quartiles l in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" m q1 q3 (List.length l)

let bound_name = function
  | Metric.Rel r -> Printf.sprintf "%g%%" (100.0 *. r)
  | Abs a -> Printf.sprintf "+%g" a
  | Unbounded -> "-"

let main base_spec new_spec bench_file layers =
  let base = load base_spec and next = load new_spec in
  let overrides = bounds_from bench_file in
  let rows = ref [] and worse = ref 0 and unresolved = ref 0 in
  let defs = Metric.end_to_end @ if layers then Metric.per_layer else [] in
  List.iter
    (fun workload ->
      let calib side =
        Metric.median_of (Option.value ~default:[] (Hashtbl.find_opt side.calib workload))
      in
      List.iter
        (fun (d : Metric.def) ->
          match
            ( Hashtbl.find_opt base.values (workload, d.name),
              Hashtbl.find_opt next.values (workload, d.name) )
          with
          | Some b, Some n ->
              let e2e = List.exists (fun (e : Metric.def) -> e.name = d.name) Metric.end_to_end in
              let bound = Option.value ~default:d.bound (List.assoc_opt d.name overrides) in
              let v = verdict d bound b n in
              let note =
                if
                  (v = "worse" || v = "better")
                  && machine_explains d ~calib_base:(calib base) ~calib_new:(calib next)
                       ~base:(Metric.median_of b) ~next:(Metric.median_of n)
                then "machine drift"
                else ""
              in
              if e2e && v = "worse" then incr worse;
              if e2e && v = "unresolved" then incr unresolved;
              rows :=
                [ workload; d.name; d.unit_; fmt_side b; fmt_side n; bound_name bound; v; note ]
                :: !rows
          | _ -> ())
        defs)
    Workloads.names;
  Metrics.Table.print
    ~header:[ "workload"; "metric"; "unit"; "base median [q1, q3]"; "new median [q1, q3]"; "bound"; "verdict"; "note" ]
    ~rows:(List.rev !rows);
  List.iter
    (fun w ->
      let show side =
        match Hashtbl.find_opt side.calib w with Some l -> fmt_side l | None -> "-"
      in
      Printf.printf "calib.mops_per_cpu_s %s: base %s, new %s\n" w (show base) (show next))
    Workloads.names;
  Printf.printf "%d end-to-end metric(s) worse, %d unresolved\n" !worse !unresolved;
  if !worse > 0 then 1 else 0
