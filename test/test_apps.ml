(* Tests for the five benchmark applications, the workload generators,
   the metrics library and the §5.7 cost model. *)

module Derive = Analyzer.Derive
module Rwset = Analyzer.Rwset

let rng () = Sim.Rng.create 77

let store_tbl data =
  let tbl = Hashtbl.create 4096 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) data;
  tbl

let eval_against tbl (f : Fdsl.Ast.func) args =
  let reads = ref [] and writes = ref [] in
  let host =
    Fdsl.Eval.host
      ~read:(fun k ->
        reads := k :: !reads;
        Option.value ~default:Dval.Unit (Hashtbl.find_opt tbl k))
      ~write:(fun k v ->
        writes := k :: !writes;
        Hashtbl.replace tbl k v)
      ()
  in
  let result = Fdsl.Eval.eval host f args in
  (result, Rwset.make ~reads:!reads ~writes:!writes)

let find_fn name =
  List.find (fun (f : Fdsl.Ast.func) -> f.fn_name = name) Apps.Catalog.all_functions

let check_dval msg expected got =
  Alcotest.(check string) msg (Dval.to_string expected) (Dval.to_string got)

let rwset_testable = Alcotest.testable Rwset.pp Rwset.equal

(* ------------------------------------------------------------------ *)
(* Registration and classification                                     *)

let test_all_29_register () =
  let reg = Radical.Registry.create () in
  List.iter
    (fun f ->
      match Radical.Registry.register reg f with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    Apps.Catalog.all_functions;
  Alcotest.(check int) "29 functions" 29
    (List.length (Radical.Registry.names reg));
  (* ib-flag branches on an Opaque policy, so automatic derivation is
     expected to fail for it; it is the manual-f^rw example (§7). *)
  Alcotest.(check int) "all but ib-flag analyzable" 28
    (Radical.Registry.analyzable_count reg)

(* Admission asks [find_pair] for every pair of tickets sharing a key:
   the memoized verdict is the conflict report's, a repeated lookup
   allocates nothing, and a registration forgets the memo. *)
let test_find_pair_memo () =
  let reg = Radical.Registry.create () in
  let register f =
    match Radical.Registry.register reg f with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let funcs = Apps.Catalog.all_functions in
  let late = List.hd funcs in
  List.iter register (List.tl funcs);
  let names = List.map (fun (f : Fdsl.Ast.func) -> f.fn_name) funcs in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) names) names in
  Alcotest.(check bool) "unregistered: no verdict" true
    (Radical.Registry.find_pair reg late.fn_name late.fn_name = None);
  let agree () =
    let r = Radical.Registry.conflicts reg in
    List.for_all
      (fun (a, b) ->
        Radical.Registry.find_pair reg a b
        = Analyzer.Conflict.find_pair r a b)
      pairs
  in
  Alcotest.(check bool) "memo agrees with the report" true (agree ());
  let lookup (a, b) = ignore (Radical.Registry.find_pair reg a b) in
  let before = Gc.minor_words () in
  List.iter lookup pairs;
  Alcotest.(check (float 0.0)) "hits allocate nothing" 0.0
    (Gc.minor_words () -. before);
  register late;
  Alcotest.(check bool) "registration forgets the memo" true (agree ());
  Alcotest.(check bool) "late function has verdicts" true
    (Radical.Registry.find_pair reg late.fn_name late.fn_name <> None)

let classification_of name =
  match Derive.derive (find_fn name) with
  | Ok d -> d.classification
  | Error e -> Alcotest.fail (Format.asprintf "%a" Derive.pp_error e)

let test_dependent_functions_match_table1 () =
  (* Asterisked in Table 1: social-post and hotel-search. Our extra two
     apps contribute ib-search and pm-view-task, giving the paper's
     "three of which required the optimization" plus one. *)
  List.iter
    (fun name ->
      match classification_of name with
      | Derive.Dependent _ -> ()
      | c ->
          Alcotest.fail
            (Format.asprintf "%s should be dependent, got %a" name
               Derive.pp_classification c))
    [ "social-post"; "hotel-search"; "ib-search"; "pm-view-task" ];
  List.iter
    (fun (info : Apps.Catalog.info) ->
      if not info.dependent then
        match classification_of info.fn_name with
        | Derive.Static -> ()
        | c ->
            Alcotest.fail
              (Format.asprintf "%s should be static, got %a" info.fn_name
                 Derive.pp_classification c))
    Apps.Catalog.table1

(* ------------------------------------------------------------------ *)
(* Residual optimizer and manual overrides over the real catalog       *)

let test_forum_digest_upgraded () =
  (* Pin the optimizer's showcase: forum-digest branches on a config
     read, but both layouts touch the same keys, so the residual
     optimizer collapses the branch and demotes the config read.
     Dependent(1) -> Static must not regress. *)
  let d =
    match Derive.derive Apps.Forum.digest_fn with
    | Ok d -> d
    | Error e -> Alcotest.fail (Format.asprintf "%a" Derive.pp_error e)
  in
  (match d.classification with
  | Derive.Dependent 1 -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "raw digest should be dependent(1), got %a"
           Derive.pp_classification c));
  let d' = Analyzer.Optimize.optimize d in
  (match d'.classification with
  | Derive.Static -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "optimized digest should be static, got %a"
           Derive.pp_classification c));
  Alcotest.(check bool) "counts as an upgrade" true
    (Analyzer.Optimize.upgraded ~before:d ~after:d');
  (* And the registry serves the optimized classification: the function
     becomes eligible for the read-only fast path with zero fetches. *)
  let reg = Radical.Registry.create () in
  (match Radical.Registry.register reg Apps.Forum.digest_fn with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Radical.Registry.find reg "forum-digest" with
  | Some entry ->
      Alcotest.(check bool) "read-only" true entry.read_only;
      (match entry.derived with
      | Some d -> (
          match d.Derive.classification with
          | Derive.Static -> ()
          | c ->
              Alcotest.fail
                (Format.asprintf "registry serves %a" Derive.pp_classification
                   c))
      | None -> Alcotest.fail "no derived entry")
  | None -> Alcotest.fail "not registered"

let test_manual_overrides_check_out () =
  (* The differential check of every developer-written f^rw, against
     representative seed data. *)
  let tbl = store_tbl (Apps.Imageboard.seed (rng ())) in
  let read k = Option.value ~default:Dval.Unit (Hashtbl.find_opt tbl k) in
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> ()
      | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" name m))
    (Apps.Catalog.check_manuals ~read ())

let test_check_manual_catches_wrong_residual () =
  (* A residual that forgets the write must be rejected. *)
  let open Fdsl.Ast in
  let wrong =
    {
      fn_name = "ib-flag";
      params = [ "u"; "i" ];
      body = Declare (Decl_read, Concat [ Str "iflags:"; Input "i" ]);
    }
  in
  let d = Derive.manual ~source:Apps.Imageboard.flag_fn ~rw_func:wrong in
  match
    Derive.check_manual d
      ~read:(fun _ -> Dval.Unit)
      ~samples:[ [ Dval.Str "u"; Dval.Str "i0" ] ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing write went undetected"

(* The central differential property of the residual optimizer: for
   EVERY catalog function, on ~200 seeded random inputs each, the
   optimized residual predicts exactly what the raw residual predicts,
   and both are exactly the real execution's accesses. Inputs come from
   the app workload generators (drawing until each function's quota is
   met); forum-digest and ib-flag are not in any generator mix, so their
   inputs are synthesized. *)
let test_optimized_residuals_differential () =
  let per_fn = 200 in
  let residual_cache = Hashtbl.create 32 in
  let residuals_of fn_name =
    match Hashtbl.find_opt residual_cache fn_name with
    | Some r -> r
    | None ->
        let r =
          match Apps.Catalog.manual_rw_of fn_name with
          | Some rw -> (
              match Derive.manual ~source:(find_fn fn_name) ~rw_func:rw with
              | d -> (d, d))
          | None -> (
              match Derive.derive (find_fn fn_name) with
              | Error e ->
                  Alcotest.fail (Format.asprintf "%a" Derive.pp_error e)
              | Ok d -> (d, Analyzer.Optimize.optimize d))
        in
        Hashtbl.add residual_cache fn_name r;
        r
  in
  let r = Sim.Rng.create 2025 in
  let streams =
    [
      ( "social",
        Apps.Social.seed ~n_users:50 r,
        Apps.Social.next (Apps.Social.gen ~n_users:50 ()),
        [] );
      ("hotel", Apps.Hotel.seed r, Apps.Hotel.next (Apps.Hotel.gen ()), []);
      ( "forum",
        Apps.Forum.seed r,
        Apps.Forum.next (Apps.Forum.gen ()),
        [
          (fun rng ->
            ( "forum-digest",
              [ Dval.Str (Printf.sprintf "f%d" (Sim.Rng.int rng 200)) ] ));
        ] );
      ( "imageboard",
        Apps.Imageboard.seed r,
        Apps.Imageboard.next (Apps.Imageboard.gen ()),
        [
          (fun rng ->
            ( "ib-flag",
              [
                Dval.Str (Printf.sprintf "b%d" (Sim.Rng.int rng 300));
                Dval.Str (Printf.sprintf "i%d" (Sim.Rng.int rng 400));
              ] ));
        ] );
      ( "projectmgmt",
        Apps.Projectmgmt.seed r,
        Apps.Projectmgmt.next (Apps.Projectmgmt.gen ()),
        [] );
    ]
  in
  List.iter
    (fun (app, seed_data, draw, extras) ->
      let master = store_tbl seed_data in
      let counts = Hashtbl.create 16 in
      let check_one (fn_name, args) =
        let seen = Option.value ~default:0 (Hashtbl.find_opt counts fn_name) in
        if seen < per_fn then begin
          Hashtbl.replace counts fn_name (seen + 1);
          let d_raw, d_opt = residuals_of fn_name in
          (* Executions mutate a copy; predictions read the untouched
             pre-execution snapshot, like the near-user cache would. *)
          let _, actual = eval_against (Hashtbl.copy master) (find_fn fn_name) args in
          let read k =
            Option.value ~default:Dval.Unit (Hashtbl.find_opt master k)
          in
          let p_raw = Derive.predict d_raw ~read args in
          let p_opt = Derive.predict d_opt ~read args in
          let label msg = Printf.sprintf "%s/%s: %s" app fn_name msg in
          Alcotest.check rwset_testable (label "raw == actual") actual p_raw;
          Alcotest.check rwset_testable (label "optimized == raw") p_raw p_opt
        end
      in
      for _ = 1 to 60_000 do
        check_one (draw r)
      done;
      List.iter
        (fun mk -> for _ = 1 to per_fn do check_one (mk r) done)
        extras;
      (* Every handler of the app must have been exercised. *)
      List.iter
        (fun (f : Fdsl.Ast.func) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s exercised" app f.fn_name)
            true
            (Hashtbl.mem counts f.fn_name))
        (List.assoc app Apps.Catalog.all_apps))
    streams

(* ------------------------------------------------------------------ *)
(* Application behaviour                                               *)

let test_social_login () =
  let tbl = store_tbl (Apps.Social.seed ~n_users:20 (rng ())) in
  let f = find_fn "social-login" in
  let ok, _ = eval_against tbl f [ Dval.Str "u3"; Dval.Str "hash-u3" ] in
  check_dval "right password" (Dval.Bool true) ok;
  let bad, _ = eval_against tbl f [ Dval.Str "u3"; Dval.Str "wrong" ] in
  check_dval "wrong password" (Dval.Bool false) bad

let test_social_post_fans_out () =
  let tbl = store_tbl (Apps.Social.seed ~n_users:20 (rng ())) in
  let followers =
    match Hashtbl.find_opt tbl "followers:u0" with
    | Some (Dval.List fs) -> List.map Dval.to_str fs
    | _ -> []
  in
  let _, accesses =
    eval_against tbl (find_fn "social-post") [ Dval.Str "u0"; Dval.Str "hi" ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "timeline:%s written" f)
        true
        (Rwset.mem_write accesses ("timeline:" ^ f));
      match Hashtbl.find_opt tbl ("timeline:" ^ f) with
      | Some (Dval.List (newest :: _)) ->
          check_dval "newest entry is the post"
            (Dval.Str "u0") (Dval.field newest "author")
      | _ -> Alcotest.fail "timeline missing")
    followers;
  Alcotest.(check bool) "posts list written" true
    (Rwset.mem_write accesses "posts:u0")

let test_social_follow_updates_both_edges () =
  let tbl = store_tbl (Apps.Social.seed ~n_users:20 (rng ())) in
  let _ =
    eval_against tbl (find_fn "social-follow") [ Dval.Str "u1"; Dval.Str "u2" ]
  in
  let contains key v =
    match Hashtbl.find_opt tbl key with
    | Some (Dval.List xs) -> List.exists (Dval.equal (Dval.Str v)) xs
    | _ -> false
  in
  Alcotest.(check bool) "u1 follows u2" true (contains "follows:u1" "u2");
  Alcotest.(check bool) "u2 followed by u1" true (contains "followers:u2" "u1")

let test_social_timeline_truncates () =
  let tbl = store_tbl (Apps.Social.seed ~n_users:20 (rng ())) in
  let result, _ = eval_against tbl (find_fn "social-timeline") [ Dval.Str "u5" ] in
  match result with
  | Dval.List posts ->
      Alcotest.(check bool) "at most 20" true (List.length posts <= 20)
  | v -> Alcotest.fail ("expected list, got " ^ Dval.to_string v)

let test_hotel_search_reads_geo_cell () =
  let tbl = store_tbl (Apps.Hotel.seed (rng ())) in
  let result, accesses =
    eval_against tbl (find_fn "hotel-search") [ Dval.Str "c2"; Dval.Str "d1" ]
  in
  Alcotest.(check bool) "geo index read" true (Rwset.mem_read accesses "geo:c2");
  (match result with
  | Dval.List entries ->
      Alcotest.(check int) "all cell hotels listed" 10 (List.length entries)
  | v -> Alcotest.fail (Dval.to_string v));
  Alcotest.(check int) "one avail read per hotel + geo" 11
    (List.length accesses.Rwset.reads)

let test_hotel_book_decrements () =
  let tbl = store_tbl (Apps.Hotel.seed (rng ())) in
  let before =
    Dval.to_int_exn (Hashtbl.find tbl "avail:h2-3:d4")
  in
  let result, _ =
    eval_against tbl (find_fn "hotel-book")
      [ Dval.Str "g1"; Dval.Str "h2-3"; Dval.Str "d4" ]
  in
  check_dval "confirmed" (Dval.Str "confirmed") result;
  Alcotest.(check int) "one room fewer" (before - 1)
    (Dval.to_int_exn (Hashtbl.find tbl "avail:h2-3:d4"));
  check_dval "booking recorded" (Dval.Str "confirmed")
    (Dval.field (Hashtbl.find tbl "booking:g1:h2-3:d4") "status")

let test_hotel_book_sold_out () =
  let tbl = store_tbl (Apps.Hotel.seed (rng ())) in
  Hashtbl.replace tbl "avail:h0-0:d0" (Dval.int 0);
  let result, _ =
    eval_against tbl (find_fn "hotel-book")
      [ Dval.Str "g1"; Dval.Str "h0-0"; Dval.Str "d0" ]
  in
  check_dval "rejected" (Dval.Str "sold-out") result;
  Alcotest.(check int) "no negative rooms" 0
    (Dval.to_int_exn (Hashtbl.find tbl "avail:h0-0:d0"))

let test_forum_interact_bumps_score () =
  let tbl = store_tbl (Apps.Forum.seed (rng ())) in
  let before = Dval.to_int_exn (Dval.field (Hashtbl.find tbl "fpost:p7") "score") in
  let _ =
    eval_against tbl (find_fn "forum-interact") [ Dval.Str "f1"; Dval.Str "p7" ]
  in
  Alcotest.(check int) "score +1" (before + 1)
    (Dval.to_int_exn (Dval.field (Hashtbl.find tbl "fpost:p7") "score"))

let test_forum_post_updates_front_page () =
  let tbl = store_tbl (Apps.Forum.seed (rng ())) in
  let _ =
    eval_against tbl (find_fn "forum-post")
      [ Dval.Str "f1"; Dval.Str "p9999"; Dval.Str "fresh"; Dval.Str "body" ]
  in
  match Hashtbl.find tbl "fhome" with
  | Dval.List (newest :: _ as all) ->
      check_dval "front page leads with new post" (Dval.Str "p9999")
        (Dval.field newest "pid");
      Alcotest.(check bool) "front page bounded" true (List.length all <= 30)
  | _ -> Alcotest.fail "fhome missing"

let test_imageboard_favorite () =
  let tbl = store_tbl (Apps.Imageboard.seed (rng ())) in
  let before = Dval.to_int_exn (Hashtbl.find tbl "ifavs:i3") in
  let _ =
    eval_against tbl (find_fn "ib-favorite") [ Dval.Str "b2"; Dval.Str "i3" ]
  in
  Alcotest.(check int) "favorite count +1" (before + 1)
    (Dval.to_int_exn (Hashtbl.find tbl "ifavs:i3"));
  match Hashtbl.find tbl "ufavs:b2" with
  | Dval.List (Dval.Str "i3" :: _) -> ()
  | v -> Alcotest.fail ("user favorites not updated: " ^ Dval.to_string v)

let test_projectmgmt_task_lifecycle () =
  let tbl = store_tbl (Apps.Projectmgmt.seed (rng ())) in
  let _ =
    eval_against tbl (find_fn "pm-create")
      [ Dval.Str "m1"; Dval.Str "pr2"; Dval.Str "pr2-t99"; Dval.Str "ship it" ]
  in
  check_dval "task open" (Dval.Str "open")
    (Dval.field (Hashtbl.find tbl "task:pr2-t99") "status");
  let _ =
    eval_against tbl (find_fn "pm-complete") [ Dval.Str "m1"; Dval.Str "pr2-t99" ]
  in
  check_dval "task done" (Dval.Str "done")
    (Dval.field (Hashtbl.find tbl "task:pr2-t99") "status")

let test_pm_view_task_reads_assignee () =
  let tbl = store_tbl (Apps.Projectmgmt.seed (rng ())) in
  let assignee = Dval.to_str (Dval.field (Hashtbl.find tbl "task:pr0-t0") "assignee") in
  let _, accesses =
    eval_against tbl (find_fn "pm-view-task") [ Dval.Str "pr0-t0" ]
  in
  Alcotest.(check bool) "assignee account read" true
    (Rwset.mem_read accesses ("puser:" ^ assignee))

(* The soundness property over the real applications: for every
   generated request, f^rw's prediction equals the accesses of the real
   execution when the cache is coherent. *)
let app_cases =
  let r = rng () in
  [
    ("social", Apps.Social.seed ~n_users:50 r, (fun rng ->
         Apps.Social.next (Apps.Social.gen ~n_users:50 ()) rng));
    ("hotel", Apps.Hotel.seed r, (fun rng -> Apps.Hotel.next (Apps.Hotel.gen ()) rng));
    ("forum", Apps.Forum.seed r, (fun rng -> Apps.Forum.next (Apps.Forum.gen ()) rng));
    ("imageboard", Apps.Imageboard.seed r, (fun rng ->
         Apps.Imageboard.next (Apps.Imageboard.gen ()) rng));
    ("projectmgmt", Apps.Projectmgmt.seed r, (fun rng ->
         Apps.Projectmgmt.next (Apps.Projectmgmt.gen ()) rng));
  ]

let prop_app_predictions_sound =
  QCheck.Test.make ~name:"f^rw predictions are exact on all app requests"
    ~count:250
    QCheck.(pair (int_range 0 4) small_int)
    (fun (app_idx, seed) ->
      let _, seed_data, next = List.nth app_cases app_idx in
      let rng = Sim.Rng.create (seed + 1) in
      let fn_name, args = next rng in
      let f = find_fn fn_name in
      let actual_tbl = store_tbl seed_data in
      let _, actual = eval_against actual_tbl f args in
      let predict_tbl = store_tbl seed_data in
      match Derive.derive f with
      | Error _ -> false
      | Ok d ->
          let predicted =
            Derive.predict d
              ~read:(fun k ->
                Option.value ~default:Dval.Unit (Hashtbl.find_opt predict_tbl k))
              args
          in
          Rwset.equal predicted actual)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_zipf_skew () =
  let z = Workload.Zipf.create ~n:100 ~theta:0.99 in
  let r = rng () in
  let hits = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let i = Workload.Zipf.sample z r in
    hits.(i) <- hits.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 is hot" true (hits.(0) > 1000);
  Alcotest.(check bool) "rank 0 >> rank 50" true (hits.(0) > 10 * max 1 hits.(50))

let test_zipf_uniform_degenerate () =
  let z = Workload.Zipf.create ~n:10 ~theta:0.0 in
  let r = rng () in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    hits.(Workload.Zipf.sample z r) <- hits.(Workload.Zipf.sample z r) + 0 + 1
  done;
  Array.iter
    (fun h -> Alcotest.(check bool) "roughly uniform" true (h > 700 && h < 1300))
    hits

let test_mix_weights () =
  let m = Workload.Mix.create [ ("a", 80.0); ("b", 20.0) ] in
  let r = rng () in
  let a = ref 0 in
  for _ = 1 to 10_000 do
    if Workload.Mix.sample m r = "a" then incr a
  done;
  Alcotest.(check bool) "a near 80%" true (!a > 7700 && !a < 8300)

let test_generators_produce_valid_requests () =
  let r = rng () in
  List.iter
    (fun (app, _, next) ->
      for _ = 1 to 200 do
        let fn_name, args = next r in
        let f = find_fn fn_name in
        if List.length f.params <> List.length args then
          Alcotest.fail
            (Printf.sprintf "%s: %s arity mismatch" app fn_name)
      done)
    app_cases

let test_mix_matches_table1 () =
  let g = Apps.Social.gen () in
  let r = rng () in
  let timeline = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    if fst (Apps.Social.next g r) = "social-timeline" then incr timeline
  done;
  let share = float_of_int !timeline /. float_of_int total in
  Alcotest.(check bool) "timeline ~80%" true (share > 0.77 && share < 0.83)

let test_driver_runs_all_clients () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  Sim.Engine.run e (fun () ->
      Workload.Driver.run_clients ~n:10 ~iterations:7 (fun ~client:_ ~iter:_ ->
          Sim.Engine.sleep 1.0;
          incr count));
  Alcotest.(check int) "all iterations" 70 !count

let test_open_loop_driver () =
  let e = Sim.Engine.create ~seed:3 () in
  let completed = ref 0 in
  let arrivals = ref 0 in
  Sim.Engine.run e (fun () ->
      arrivals :=
        Workload.Driver.run_open ~rate:100.0 ~duration:10_000.0
          ~rng:(Sim.Rng.split (Sim.Engine.rng ()))
          (fun ~arrival:_ ->
            Sim.Engine.sleep 25.0;
            incr completed));
  (* ~100 req/s for 10 s: expect roughly 1000 arrivals. *)
  Alcotest.(check bool) "poisson arrival count plausible" true
    (!arrivals > 800 && !arrivals < 1200);
  Alcotest.(check int) "every arrival completed" !arrivals !completed

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_stats_percentiles () =
  let s = Metrics.Stats.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  (* Type-7 linear interpolation: rank p*(n-1) between order statistics. *)
  Alcotest.(check (float 1e-9)) "median" 50.5 (Metrics.Stats.median s);
  Alcotest.(check (float 1e-9)) "p99" 99.01 (Metrics.Stats.p99 s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.Stats.max s);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Metrics.Stats.mean s)

let test_stats_merge_and_empty () =
  let a = Metrics.Stats.of_list [ 1.0; 2.0 ] in
  let b = Metrics.Stats.of_list [ 3.0 ] in
  Alcotest.(check int) "merge count" 3 (Metrics.Stats.count (Metrics.Stats.merge a b));
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Metrics.Stats.median (Metrics.Stats.create ())))

let test_histogram () =
  let s = Metrics.Stats.of_list (List.init 100 (fun i -> float_of_int i)) in
  let buckets = Metrics.Stats.histogram s ~buckets:10 in
  Alcotest.(check int) "bucket count" 10 (List.length buckets);
  Alcotest.(check int) "all samples counted" 100
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 buckets);
  List.iter
    (fun (_, _, n) -> Alcotest.(check int) "uniform fill" 10 n)
    buckets;
  (* A constant sample set lands in one bucket. *)
  let flat = Metrics.Stats.of_list [ 5.0; 5.0; 5.0 ] in
  let b = Metrics.Stats.histogram flat ~buckets:4 in
  Alcotest.(check int) "constant data in one bucket" 3
    (match b with (_, _, n) :: _ -> n | [] -> -1)

let test_table_render () =
  let s =
    Metrics.Table.render ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has rule" true (String.contains s '-');
  Alcotest.(check bool) "multiline" true (List.length (String.split_on_char '\n' s) = 4)

(* ------------------------------------------------------------------ *)
(* Cost model (§5.7)                                                   *)

let test_cost_infrastructure () =
  let p = Cost.defaults in
  Alcotest.(check (float 0.01)) "baseline infra" 1077.36
    (Cost.infrastructure_baseline p);
  Alcotest.(check (float 0.01)) "radical infra" 1413.36
    (Cost.infrastructure_radical p);
  Alcotest.(check (float 0.005)) "31% increase" 1.31
    (Cost.infrastructure_radical p /. Cost.infrastructure_baseline p)

let test_cost_at_scale_matches_paper () =
  let p = Cost.defaults in
  let check_case invocations base rad =
    let b = Cost.at_scale p ~invocations_per_month:invocations in
    Alcotest.(check (float 0.02)) "baseline" base b.baseline_total;
    Alcotest.(check (float 0.02)) "radical" rad b.radical_total
  in
  check_case 1e6 1080.23 1416.37;
  check_case 1e7 1106.06 1443.50;
  check_case 1e8 1364.36 1714.71

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "apps"
    [
      ( "registration",
        [
          Alcotest.test_case "all 29 register" `Quick test_all_29_register;
          Alcotest.test_case "find_pair memo" `Quick test_find_pair_memo;
          Alcotest.test_case "classification matches Table 1" `Quick
            test_dependent_functions_match_table1;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "forum-digest upgraded to static" `Quick
            test_forum_digest_upgraded;
          Alcotest.test_case "manual overrides check out" `Quick
            test_manual_overrides_check_out;
          Alcotest.test_case "wrong manual residual rejected" `Quick
            test_check_manual_catches_wrong_residual;
          Alcotest.test_case "optimized == raw == actual (200/fn)" `Slow
            test_optimized_residuals_differential;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "social login" `Quick test_social_login;
          Alcotest.test_case "social post fan-out" `Quick test_social_post_fans_out;
          Alcotest.test_case "social follow edges" `Quick
            test_social_follow_updates_both_edges;
          Alcotest.test_case "social timeline truncates" `Quick
            test_social_timeline_truncates;
          Alcotest.test_case "hotel search" `Quick test_hotel_search_reads_geo_cell;
          Alcotest.test_case "hotel book decrements" `Quick test_hotel_book_decrements;
          Alcotest.test_case "hotel book sold out" `Quick test_hotel_book_sold_out;
          Alcotest.test_case "forum interact bumps score" `Quick
            test_forum_interact_bumps_score;
          Alcotest.test_case "forum post front page" `Quick
            test_forum_post_updates_front_page;
          Alcotest.test_case "imageboard favorite" `Quick test_imageboard_favorite;
          Alcotest.test_case "projectmgmt lifecycle" `Quick
            test_projectmgmt_task_lifecycle;
          Alcotest.test_case "pm view-task dependent read" `Quick
            test_pm_view_task_reads_assignee;
        ]
        @ qsuite [ prop_app_predictions_sound ] );
      ( "workload",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform degenerate" `Quick
            test_zipf_uniform_degenerate;
          Alcotest.test_case "mix weights" `Quick test_mix_weights;
          Alcotest.test_case "generators valid" `Quick
            test_generators_produce_valid_requests;
          Alcotest.test_case "mix matches Table 1" `Quick test_mix_matches_table1;
          Alcotest.test_case "driver runs all clients" `Quick
            test_driver_runs_all_clients;
          Alcotest.test_case "open-loop driver" `Quick test_open_loop_driver;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "merge and empty" `Quick test_stats_merge_and_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "table render" `Quick test_table_render;
        ] );
      ( "cost",
        [
          Alcotest.test_case "infrastructure" `Quick test_cost_infrastructure;
          Alcotest.test_case "at scale matches paper" `Quick
            test_cost_at_scale_matches_paper;
        ] );
    ]
