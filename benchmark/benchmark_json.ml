(* BENCHMARK.json against the benchmark itself: the file must list exactly
   the workloads and headline metrics defined here, with the same units,
   directions and bounds, and every listed metric must have been printed
   by the runs at hand. The smoke run calls this, so the two cannot
   drift apart. *)

let better_name = function Metric.Lower -> "lower" | Higher -> "higher"

let check ~file ~(reports : Bench.report list) =
  match Json.of_file file with
  | exception Sys_error e -> [ "cannot read " ^ e ]
  | exception Json.Parse_error e -> [ file ^ ": " ^ e ]
  | doc ->
      let problems = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      let entries key =
        List.filter_map
          (fun e -> Option.map (fun n -> (n, e)) (Option.bind (Json.member "name" e) Json.to_str))
          (Json.to_list (Option.value ~default:Json.Null (Json.member key doc)))
      in
      let listed_workloads = List.map fst (entries "workloads") in
      if listed_workloads <> Workloads.names then
        problem "workloads %s, expected %s" (String.concat "," listed_workloads)
          (String.concat "," Workloads.names);
      let check_list key names =
        let listed = entries key in
        if List.map fst listed <> names then
          problem "%s lists %s, expected %s" key
            (String.concat "," (List.map fst listed))
            (String.concat "," names);
        List.iter
          (fun (name, e) ->
            match Metric.find name with
            | None -> problem "%s: %s is not a metric of the benchmark" key name
            | Some d ->
                let str k = Option.bind (Json.member k e) Json.to_str in
                if str "unit" <> Some d.unit_ then problem "%s: unit differs" name;
                if str "better" <> Some (better_name d.better) then
                  problem "%s: direction differs" name;
                (match (d.bound, Option.bind (Json.member "bound" e) Json.to_num) with
                | Metric.Rel b, Some b' when b = b' -> ()
                | Metric.Rel _, _ -> problem "%s: bound differs" name
                | _ -> ()))
          listed
      in
      check_list "end_to_end" Metric.headline_end_to_end;
      check_list "per_layer" Metric.headline_per_layer;
      List.iter
        (fun (r : Bench.report) ->
          let names =
            if r.traced then Metric.headline_per_layer else Metric.headline_end_to_end
          in
          List.iter
            (fun name ->
              match List.assoc_opt name r.values with
              | Some (Bench.Value _) -> ()
              | Some (Refused _) when r.traced -> ()
              | _ -> problem "%s: %s was not printed" r.workload name)
            names)
        reports;
      List.rev !problems
