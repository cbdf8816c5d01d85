module Derive = Analyzer.Derive
module Optimize = Analyzer.Optimize

(* ------------------------------------------------------------------ *)
(* Part 1: predict cost, raw residual vs. optimized residual.          *)

type acc = {
  mutable n : int;
  mutable fetch_raw : int;
  mutable fetch_opt : int;
  mutable ms_raw : float;
  mutable ms_opt : float;
}

let find_fn name =
  List.find
    (fun (f : Fdsl.Ast.func) -> f.fn_name = name)
    Apps.Catalog.all_functions

(* Per-app request streams. The generators cover each app's Table-1 mix;
   forum-digest and ib-flag are not in any mix, so a few hand-rolled
   requests keep the optimizer showcase and the manual override in the
   table. *)
let app_streams ~n rng =
  let draws next = List.init n (fun _ -> next rng) in
  let extra count mk = List.init count (fun _ -> mk ()) in
  [
    ( "social",
      Apps.Social.seed ~n_users:50 rng,
      draws (Apps.Social.next (Apps.Social.gen ~n_users:50 ())) );
    ( "hotel",
      Apps.Hotel.seed rng,
      draws (Apps.Hotel.next (Apps.Hotel.gen ())) );
    ( "forum",
      Apps.Forum.seed rng,
      draws (Apps.Forum.next (Apps.Forum.gen ()))
      @ extra 25 (fun () ->
            ( "forum-digest",
              [ Dval.Str (Printf.sprintf "f%d" (Sim.Rng.int rng 200)) ] )) );
    ( "imageboard",
      Apps.Imageboard.seed rng,
      draws (Apps.Imageboard.next (Apps.Imageboard.gen ()))
      @ extra 25 (fun () ->
            ( "ib-flag",
              [
                Dval.Str (Printf.sprintf "b%d" (Sim.Rng.int rng 300));
                Dval.Str (Printf.sprintf "i%d" (Sim.Rng.int rng 400));
              ] )) );
    ( "projectmgmt",
      Apps.Projectmgmt.seed rng,
      draws (Apps.Projectmgmt.next (Apps.Projectmgmt.gen ())) );
  ]

let residuals_of name =
  match Apps.Catalog.manual_rw_of name with
  | Some rw ->
      let d = Derive.manual ~source:(find_fn name) ~rw_func:rw in
      Some (d, d)
  | None -> (
      match Derive.derive (find_fn name) with
      | Error _ -> None
      | Ok d -> Some (d, Optimize.optimize d))

let classification_str (d : Derive.t) =
  Format.asprintf "%a" Derive.pp_classification d.classification

let predict_cost ~scale ~seed () =
  Runner.heading "analyze: f^rw predict cost, raw vs. residual-optimized";
  let n = Runner.scaled scale 200 in
  let rng = Sim.Rng.create seed in
  let rows = ref [] in
  let wall_raw = ref 0.0 and wall_opt = ref 0.0 in
  List.iter
    (fun (app, seed_data, reqs) ->
      let tbl = Hashtbl.create 4096 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) seed_data;
      let residual_cache = Hashtbl.create 16 in
      let accs = Hashtbl.create 16 in
      List.iter
        (fun (fn_name, args) ->
          let residuals =
            match Hashtbl.find_opt residual_cache fn_name with
            | Some r -> r
            | None ->
                let r = residuals_of fn_name in
                Hashtbl.add residual_cache fn_name r;
                r
          in
          match residuals with
          | None -> ()
          | Some (d_raw, d_opt) ->
              let acc =
                match Hashtbl.find_opt accs fn_name with
                | Some a -> a
                | None ->
                    let a =
                      { n = 0; fetch_raw = 0; fetch_opt = 0;
                        ms_raw = 0.0; ms_opt = 0.0 }
                    in
                    Hashtbl.add accs fn_name a;
                    a
              in
              let measure d wall =
                let fetches = ref 0 and ms = ref 0.0 in
                let read k =
                  incr fetches;
                  Option.value ~default:Dval.Unit (Hashtbl.find_opt tbl k)
                in
                let t0 = Sys.time () in
                ignore
                  (Derive.predict d ~read
                     ~compute:(fun c -> ms := !ms +. c)
                     args);
                wall := !wall +. (Sys.time () -. t0);
                (!fetches, !ms)
              in
              let fr, mr = measure d_raw wall_raw in
              let fo, mo = measure d_opt wall_opt in
              acc.n <- acc.n + 1;
              acc.fetch_raw <- acc.fetch_raw + fr;
              acc.fetch_opt <- acc.fetch_opt + fo;
              acc.ms_raw <- acc.ms_raw +. mr;
              acc.ms_opt <- acc.ms_opt +. mo)
        reqs;
      (* one row per function, catalog order *)
      List.iter
        (fun (f : Fdsl.Ast.func) ->
          match (Hashtbl.find_opt accs f.fn_name,
                 Hashtbl.find_opt residual_cache f.fn_name) with
          | Some acc, Some (Some (d_raw, d_opt)) ->
              let per x = float_of_int x /. float_of_int acc.n in
              let perf x = x /. float_of_int acc.n in
              rows :=
                [
                  app;
                  f.fn_name;
                  classification_str d_raw;
                  classification_str d_opt;
                  string_of_int acc.n;
                  Printf.sprintf "%.2f" (per acc.fetch_raw);
                  Printf.sprintf "%.2f" (per acc.fetch_opt);
                  Printf.sprintf "%.1f" (perf acc.ms_raw);
                  Printf.sprintf "%.1f" (perf acc.ms_opt);
                ]
                :: !rows
          | _ -> ())
        (List.assoc app Apps.Catalog.all_apps))
    (app_streams ~n rng);
  Metrics.Table.print
    ~header:
      [
        "app"; "function"; "raw"; "optimized"; "reqs";
        "fetch/req"; "fetch/req'"; "ms/req"; "ms/req'";
      ]
    ~rows:(List.rev !rows);
  Printf.printf
    "\npredict wall time: raw %.1f ms, optimized %.1f ms (%d requests)\n"
    (!wall_raw *. 1000.0) (!wall_opt *. 1000.0)
    (List.fold_left
       (fun a (_, _, reqs) -> a + List.length reqs)
       0
       (app_streams ~n (Sim.Rng.create seed)))

(* ------------------------------------------------------------------ *)
(* Part 2: the read-only LVI fast path, on vs. off.                    *)

(* The forum bundle with half the requests going to forum-digest: a
   read-only function cheap enough (25 ms) that the LVI round trip, not
   speculation, is its critical path — where the fast path can show up
   end to end rather than only in server-side work. *)
let digest_heavy_forum =
  {
    Apps.Bundle.forum with
    Apps.Bundle.name = "forum+digest";
    new_gen =
      (fun () ->
        let inner = Apps.Forum.gen () in
        fun rng ->
          if Sim.Rng.int rng 2 = 0 then
            ( "forum-digest",
              [ Dval.Str (Printf.sprintf "f%d" (Sim.Rng.int rng 200)) ] )
          else Apps.Forum.next inner rng);
  }

let fast_path ~scale ~seed () =
  Runner.heading
    "analyze: read-only LVI fast path (forum + 50% digest, 3 seeds merged)";
  let rpc = Runner.scaled scale 40 in
  let cases =
    let base = Radical.Framework.default_config in
    let repl = Radical.Deployment.config [ Replicated ] in
    [
      ("singleton,  ro_fast off", { base with ro_fast = false });
      ("singleton,  ro_fast on", { base with ro_fast = true });
      ("replicated, ro_fast off", { repl with ro_fast = false });
      ("replicated, ro_fast on", { repl with ro_fast = true });
    ]
  in
  let rows =
    List.map
      (fun (label, cfg) ->
        let runs =
          List.map
            (fun s ->
              Runner.run ~seed:s ~requests_per_client:rpc
                (Runner.Radical_with cfg) digest_heavy_forum)
            [ seed; seed + 17; seed + 101 ]
        in
        let all =
          List.concat_map
            (fun (r : Runner.result) ->
              List.map (fun s -> s.Runner.s_latency) r.samples)
            runs
        in
        let digest =
          List.concat_map
            (fun (r : Runner.result) ->
              List.filter_map
                (fun s ->
                  if s.Runner.s_fn = "forum-digest" then
                    Some s.Runner.s_latency
                  else None)
                r.samples)
            runs
        in
        let avg get =
          let vs = List.filter_map get runs in
          List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
        in
        let st = Metrics.Stats.of_list all in
        [
          label;
          Printf.sprintf "%.1f" (Metrics.Stats.median st);
          Printf.sprintf "%.1f" (Metrics.Stats.p99 st);
          Printf.sprintf "%.1f"
            (Metrics.Stats.median (Metrics.Stats.of_list digest));
          Printf.sprintf "%.1f%%"
            (100.0 *. avg (fun (r : Runner.result) -> r.spec_rate));
          Printf.sprintf "%.1f%%"
            (100.0 *. avg (fun (r : Runner.result) -> r.validation_rate));
        ])
      cases
  in
  Metrics.Table.print
    ~header:
      [ "deployment"; "median ms"; "p99 ms"; "digest med"; "spec"; "validated" ]
    ~rows

let run ?(scale = 1.0) ?(seed = 42) () =
  predict_cost ~scale ~seed ();
  fast_path ~scale ~seed ()
