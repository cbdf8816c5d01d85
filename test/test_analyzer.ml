(* Tests for the static analyzer: classification, residual f^rw
   behaviour, and exactness of the predicted read/write set against the
   accesses the real execution performs. *)

open Fdsl
open Ast
module Derive = Analyzer.Derive
module Rwset = Analyzer.Rwset

let derive_ok f =
  match Derive.derive f with
  | Ok d -> d
  | Error e -> Alcotest.fail (Format.asprintf "%a" Derive.pp_error e)

let classification d = d.Derive.classification

let store_read store k =
  Option.value ~default:Dval.Unit (List.assoc_opt k store)

let rwset =
  Alcotest.testable Rwset.pp Rwset.equal

(* ------------------------------------------------------------------ *)
(* Rwset                                                               *)

let test_rwset_normalization () =
  let s = Rwset.make ~reads:[ "b"; "a"; "b"; "c" ] ~writes:[ "c"; "c" ] in
  Alcotest.(check (list string)) "reads sorted, deduped (written keys kept)"
    [ "a"; "b"; "c" ] s.Rwset.reads;
  Alcotest.(check (list string)) "writes" [ "c" ] s.Rwset.writes;
  Alcotest.(check (list string)) "all keys" [ "a"; "b"; "c" ] (Rwset.all_keys s);
  Alcotest.(check bool) "has writes" true (Rwset.has_writes s);
  Alcotest.(check int) "cardinal" 4 (Rwset.cardinal s);
  (* Write locks dominate for read+written keys. *)
  Alcotest.(check (list (pair string bool)))
    "lock modes"
    [ ("a", false); ("b", false); ("c", true) ]
    (List.map (fun (k, m) -> (k, m = `W)) (Rwset.lock_modes s))

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let profile_fn =
  {
    fn_name = "profile";
    params = [ "user" ];
    body =
      Compute
        ( 100.0,
          Record_lit
            [
              ("user", Read (Concat [ Str "user:"; Input "user" ]));
              ("posts", Read (Concat [ Str "posts:"; Input "user" ]));
            ] );
  }

let test_static_classification () =
  let d = derive_ok profile_fn in
  (match classification d with
  | Derive.Static -> ()
  | c -> Alcotest.fail (Format.asprintf "expected static, got %a" Derive.pp_classification c))

let timeline_fn =
  (* Key of the inner reads depends on the follows list: dependent. *)
  {
    fn_name = "timeline";
    params = [ "user" ];
    body =
      Let
        ( "ids",
          Read (Concat [ Str "follows:"; Input "user" ]),
          Foreach
            ( "id",
              Var "ids",
              Compute (5.0, Read (Concat [ Str "posts:"; Var "id" ])) ) );
  }

let test_dependent_classification () =
  let d = derive_ok timeline_fn in
  match classification d with
  | Derive.Dependent 1 -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "expected dependent(1), got %a" Derive.pp_classification c)

let test_expensive_classification () =
  let f =
    {
      fn_name = "mine";
      params = [ "seed" ];
      body = Read (Concat [ Str "k:"; Str_of_int (Compute (200.0, Input "seed")) ]);
    }
  in
  let d = derive_ok f in
  match classification d with
  | Derive.Expensive -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "expected expensive, got %a" Derive.pp_classification c)

let test_opaque_key_unanalyzable () =
  let f =
    {
      fn_name = "shady";
      params = [];
      body = Read (Opaque (Str "k"));
    }
  in
  match Derive.derive f with
  | Error e -> Alcotest.(check string) "names the function" "shady" e.fn_name
  | Ok _ -> Alcotest.fail "expected unanalyzable"

let test_opaque_branch_unanalyzable () =
  let f =
    {
      fn_name = "shady-branch";
      params = [];
      body = If (Opaque (Bool true), Read (Str "a"), Read (Str "b"));
    }
  in
  match Derive.derive f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unanalyzable"

let test_opaque_result_is_fine () =
  (* Opaqueness only in the result value doesn't block key prediction. *)
  let f =
    {
      fn_name = "opaque-result";
      params = [];
      body = Seq [ Write (Str "k", Unit); Opaque (Str "mystery") ];
    }
  in
  let d = derive_ok f in
  match classification d with
  | Derive.Static -> ()
  | _ -> Alcotest.fail "expected static"

let test_nondeterministic_key_unanalyzable () =
  let f =
    { fn_name = "rand-key"; params = []; body = Read (Str_of_int (Random_int 5)) }
  in
  match Derive.derive f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unanalyzable"

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)

let predict ?(cache = []) ?compute d args =
  Derive.predict d ~read:(store_read cache) ?compute args

let actual_accesses f store args =
  let reads = ref [] and writes = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) store;
  let host =
    Eval.host
      ~read:(fun k ->
        reads := k :: !reads;
        Option.value ~default:Dval.Unit (Hashtbl.find_opt tbl k))
      ~write:(fun k v ->
        writes := k :: !writes;
        Hashtbl.replace tbl k v)
      ()
  in
  let _ = Eval.eval host f args in
  Rwset.make ~reads:!reads ~writes:!writes

let test_static_prediction_exact () =
  let d = derive_ok profile_fn in
  let args = [ Dval.Str "u9" ] in
  Alcotest.check rwset "prediction matches execution"
    (actual_accesses profile_fn [] args)
    (predict d args)

let test_static_prediction_no_cache_fetch () =
  let d = derive_ok profile_fn in
  let fetches = ref 0 in
  let _ =
    Derive.predict d
      ~read:(fun _ ->
        incr fetches;
        Dval.Unit)
      [ Dval.Str "u9" ]
  in
  Alcotest.(check int) "static f^rw reads nothing" 0 !fetches

let test_static_prediction_strips_compute () =
  let d = derive_ok profile_fn in
  let charged = ref 0.0 in
  let _ = predict d ~compute:(fun ms -> charged := !charged +. ms) [ Dval.Str "u" ] in
  Alcotest.(check (float 1e-9)) "no compute in static f^rw" 0.0 !charged

let follows_cache =
  [
    ("follows:u1", Dval.List [ Dval.Str "a"; Dval.Str "b"; Dval.Str "c" ]);
    ("posts:a", Dval.Str "pa");
    ("posts:b", Dval.Str "pb");
    ("posts:c", Dval.Str "pc");
  ]

let test_dependent_prediction_exact () =
  let d = derive_ok timeline_fn in
  let args = [ Dval.Str "u1" ] in
  Alcotest.check rwset "prediction from coherent cache is exact"
    (actual_accesses timeline_fn follows_cache args)
    (predict ~cache:follows_cache d args)

let test_dependent_prediction_uses_cache () =
  let d = derive_ok timeline_fn in
  (* A stale cache (shorter follows list) predicts a smaller read set —
     which validation would catch via the follows key's version. *)
  let stale = [ ("follows:u1", Dval.List [ Dval.Str "a" ]) ] in
  let s = predict ~cache:stale d [ Dval.Str "u1" ] in
  Alcotest.(check (list string)) "keys from stale cache"
    [ "follows:u1"; "posts:a" ] s.Rwset.reads

let test_dependent_fetches_only_influencing () =
  (* The per-post reads feed no key, so f^rw must declare them without
     touching the cache — only the follows list is fetched. *)
  let d = derive_ok timeline_fn in
  let fetches = ref 0 in
  let s =
    Derive.predict d
      ~read:(fun k ->
        incr fetches;
        store_read follows_cache k)
      [ Dval.Str "u1" ]
  in
  Alcotest.(check int) "single cache fetch" 1 !fetches;
  Alcotest.(check int) "all four reads predicted" 4
    (List.length s.Rwset.reads)

let test_dependent_prediction_strips_inner_compute () =
  let d = derive_ok timeline_fn in
  let charged = ref 0.0 in
  let _ =
    predict ~cache:follows_cache d
      ~compute:(fun ms -> charged := !charged +. ms)
      [ Dval.Str "u1" ]
  in
  Alcotest.(check (float 1e-9)) "per-post compute stripped" 0.0 !charged

let test_expensive_prediction_charges_compute () =
  let f =
    {
      fn_name = "mine";
      params = [ "seed" ];
      body = Read (Concat [ Str "k:"; Str_of_int (Compute (200.0, Input "seed")) ]);
    }
  in
  let d = derive_ok f in
  let charged = ref 0.0 in
  let s = predict d ~compute:(fun ms -> charged := !charged +. ms) [ Dval.Int 3L ] in
  Alcotest.(check (float 1e-9)) "compute kept" 200.0 !charged;
  Alcotest.(check (list string)) "key correct" [ "k:3" ] s.Rwset.reads

let test_branchy_prediction_follows_control () =
  let f =
    {
      fn_name = "branchy";
      params = [ "n" ];
      body =
        If
          ( Binop (Gt, Input "n", Int 10L),
            Write (Str "big", Compute (50.0, Input "n")),
            Write (Str "small", Input "n") );
    }
  in
  let d = derive_ok f in
  let s_hi = predict d [ Dval.Int 50L ] in
  let s_lo = predict d [ Dval.Int 5L ] in
  Alcotest.(check (list string)) "big branch" [ "big" ] s_hi.Rwset.writes;
  Alcotest.(check (list string)) "small branch" [ "small" ] s_lo.Rwset.writes

let test_write_value_reads_are_logged () =
  (* write(k, read(k2)): k2's value is never key-relevant, yet the real
     execution reads it, so f^rw must still declare it. *)
  let f =
    {
      fn_name = "copy";
      params = [];
      body = Write (Str "dst", Read (Str "src"));
    }
  in
  let d = derive_ok f in
  let fetches = ref 0 in
  let s =
    Derive.predict d
      ~read:(fun _ ->
        incr fetches;
        Dval.Unit)
      []
  in
  Alcotest.(check (list string)) "src logged" [ "src" ] s.Rwset.reads;
  Alcotest.(check (list string)) "dst logged" [ "dst" ] s.Rwset.writes;
  Alcotest.(check int) "but not fetched" 0 !fetches

let test_fanout_writes_predicted () =
  (* The social-media "post" shape: read followers, write each timeline. *)
  let f =
    {
      fn_name = "post";
      params = [ "user"; "text" ];
      body =
        Let
          ( "fs",
            Read (Concat [ Str "followers:"; Input "user" ]),
            Seq
              [
                Write (Concat [ Str "posts:"; Input "user" ], Input "text");
                Foreach
                  ( "fid",
                    Var "fs",
                    Write (Concat [ Str "timeline:"; Var "fid" ], Input "text")
                  );
              ] );
    }
  in
  let d = derive_ok f in
  (match classification d with
  | Derive.Dependent 1 -> ()
  | c -> Alcotest.fail (Format.asprintf "got %a" Derive.pp_classification c));
  let cache = [ ("followers:u", Dval.List [ Dval.Str "f1"; Dval.Str "f2" ]) ] in
  let s = predict ~cache d [ Dval.Str "u"; Dval.Str "hi" ] in
  Alcotest.(check (list string)) "write fan-out"
    [ "posts:u"; "timeline:f1"; "timeline:f2" ]
    s.Rwset.writes;
  Alcotest.(check (list string)) "followers read" [ "followers:u" ] s.Rwset.reads

(* ------------------------------------------------------------------ *)
(* Key shapes (Absint)                                                 *)

module Absint = Analyzer.Absint

let shape_str sm = List.map Absint.shape_to_string sm

let test_summarize_shapes () =
  let sm = Absint.summarize profile_fn in
  Alcotest.(check (list string)) "profile read shapes"
    [ {|"posts:" ^ <user>|}; {|"user:" ^ <user>|} ]
    (shape_str sm.Absint.sm_reads);
  Alcotest.(check (list string)) "no writes" [] (shape_str sm.Absint.sm_writes);
  Alcotest.(check bool) "not top" false sm.Absint.sm_top;
  let tm = Absint.summarize timeline_fn in
  (* The per-post read runs under Foreach: one invocation may lock many
     posts:* keys. *)
  Alcotest.(check bool) "timeline posts shape is multi" true
    (List.exists
       (fun s -> Absint.shape_to_string s = {|"posts:" ^ <id>|})
       tm.Absint.sm_multi)

let test_shape_join_sound () =
  (* The "aa" vs "aaa" trap: stripping a common prefix AND suffix from
     overlapping occurrences would yield "aa" ^ hole ^ "a", which fails
     to match "aa". The join must still cover both inputs. *)
  let a = [ Absint.Lit "aa" ] and b = [ Absint.Lit "aaa" ] in
  let j = Absint.join a b in
  Alcotest.(check bool) "join covers aa" true (Absint.matches j "aa");
  Alcotest.(check bool) "join covers aaa" true (Absint.matches j "aaa")

let test_shape_overlap_and_order () =
  let hole label = Absint.Hole { src = Absint.Input_only; label } in
  let timeline l = [ Absint.Lit "timeline:"; hole l ] in
  let posts = [ Absint.Lit "posts:"; hole "a" ] in
  Alcotest.(check bool) "same prefix overlaps" true
    (Absint.overlap (timeline "a") (timeline "b"));
  Alcotest.(check bool) "distinct prefixes disjoint" false
    (Absint.overlap posts (timeline "a"));
  Alcotest.(check bool) "top overlaps everything" true
    (Absint.overlap Absint.top posts);
  (* Lock order (lexicographic keys, §3.6). *)
  Alcotest.(check bool) "posts:* sorts before timeline:*" true
    (Absint.ordered_before posts (timeline "a") = Some true);
  Alcotest.(check bool) "same-prefix order undecided" true
    (Absint.ordered_before (timeline "a") (timeline "b") = None)

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)

module Conflict = Analyzer.Conflict

let mk_fn name body = { fn_name = name; params = [ "x" ]; body }

let conflict_corpus =
  [
    mk_fn "reader" (Read (Str "home"));
    mk_fn "other-reader" (Read (Str "home"));
    mk_fn "writer" (Write (Str "home", Input "x"));
    mk_fn "elsewhere" (Write (Concat [ Str "log:"; Input "x" ], Int 1L));
    mk_fn "bumper"
      (Write (Str "counter", Binop (Add, Read (Str "counter"), Int 1L)));
  ]

let conflict_report =
  lazy (Conflict.build (List.map Absint.summarize conflict_corpus))

let test_conflict_verdicts () =
  let r = Lazy.force conflict_report in
  let check_pair a b v =
    Alcotest.(check bool)
      (Printf.sprintf "%s vs %s" a b)
      true
      (Conflict.find_pair r a b = Some v)
  in
  check_pair "reader" "other-reader" Conflict.Read_share;
  check_pair "reader" "writer" Conflict.May_conflict;
  check_pair "reader" "elsewhere" Conflict.Disjoint;
  check_pair "writer" "elsewhere" Conflict.Disjoint;
  Alcotest.(check bool) "bumper is rmw" true
    (List.mem_assoc "bumper" r.Conflict.r_rmw);
  Alcotest.(check bool) "plain writer is not rmw" false
    (List.mem_assoc "writer" r.Conflict.r_rmw);
  Alcotest.(check int) "reader degree" 1 (Conflict.degree r "reader");
  Alcotest.(check int) "elsewhere degree" 0 (Conflict.degree r "elsewhere")

let test_conflict_order_hazards () =
  (* Two functions that each write several timeline:* keys under a
     Foreach: without sorted acquisition they could deadlock, so the
     hazard must be reported. A single-key writer must not trigger it. *)
  let fanout name =
    mk_fn name
      (Foreach
         ( "f",
           Read (Concat [ Str "followers:"; Input "x" ]),
           Write (Concat [ Str "timeline:"; Var "f" ], Int 1L) ))
  in
  let r =
    Conflict.build
      (List.map Absint.summarize [ fanout "post-a"; fanout "post-b" ])
  in
  Alcotest.(check bool) "fan-out pair has order hazard" true
    (r.Conflict.r_order_hazards <> []);
  let single =
    Conflict.build
      (List.map Absint.summarize
         [
           mk_fn "w1" (Write (Concat [ Str "t:"; Input "x" ], Int 1L));
           mk_fn "w2" (Write (Concat [ Str "t:"; Input "x" ], Int 2L));
         ])
  in
  Alcotest.(check (list string)) "single-key writers: no hazard" []
    (List.map
       (fun (a, b, _, _) -> a ^ "/" ^ b)
       single.Conflict.r_order_hazards)

(* ------------------------------------------------------------------ *)
(* Residual optimizer                                                  *)

module Optimize = Analyzer.Optimize

let test_simplify_folds_constants () =
  let e =
    If
      ( Binop (Eq, Int 1L, Int 1L),
        Concat [ Str "a:"; Input "x" ],
        Read (Str "never") )
  in
  (match Optimize.simplify e with
  | Concat [ Str "a:"; Input "x" ] -> ()
  | e' -> Alcotest.fail (Format.asprintf "unexpected residual %a" Ast.pp e'));
  (* Short-circuit folding must preserve the conditional evaluation the
     interpreter performs: a truthy Or left arm decides the value. *)
  match Optimize.simplify (Binop (Or, Bool true, Read (Str "x"))) with
  | Bool true -> ()
  | e' -> Alcotest.fail (Format.asprintf "or not folded: %a" Ast.pp e')

let test_optimize_collapses_equivalent_arms () =
  (* forum-digest in miniature: both arms of a config-dependent branch
     touch the same keys, so the residual branch collapses and the
     config read stops being control-relevant -> Static upgrade. *)
  let f =
    mk_fn "digestish"
      (Let
         ( "cfg",
           Read (Str "cfg"),
           If
             ( Var "cfg",
               Record_lit
                 [
                   ("layout", Str "classic");
                   ("home", Read (Str "home"));
                   ("me", Read (Concat [ Str "user:"; Input "x" ]));
                 ],
               Record_lit
                 [
                   ("layout", Str "cards");
                   ("home", Read (Str "home"));
                   ("me", Read (Concat [ Str "user:"; Input "x" ]));
                 ] ) ))
  in
  let d = derive_ok f in
  (match classification d with
  | Derive.Dependent 1 -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "raw should be dependent(1), got %a"
           Derive.pp_classification c));
  let d' = Optimize.optimize d in
  (match classification d' with
  | Derive.Static -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "optimized should be static, got %a"
           Derive.pp_classification c));
  Alcotest.(check bool) "counts as upgrade" true
    (Optimize.upgraded ~before:d ~after:d');
  (* The optimized residual needs no cache and still predicts the exact
     access set of the real execution, whatever the config value. *)
  List.iter
    (fun cfg ->
      let store =
        [ ("cfg", cfg); ("home", Dval.Str "h"); ("user:u", Dval.Str "u") ]
      in
      let args = [ Dval.Str "u" ] in
      let fetches = ref 0 in
      let s =
        Derive.predict d'
          ~read:(fun k ->
            incr fetches;
            store_read store k)
          args
      in
      Alcotest.(check int) "no cache fetches" 0 !fetches;
      Alcotest.check rwset "exact prediction" (actual_accesses f store args) s)
    [ Dval.Bool true; Dval.Bool false ]

let test_optimize_demotes_dead_dependent_read () =
  (* After the statically-false branch is pruned, the cfg read no longer
     feeds any key: it must be demoted to a declared (validated but not
     cache-fetched) read, upgrading Dependent -> Static. *)
  let f =
    mk_fn "deadcfg"
      (Let
         ( "v",
           Read (Str "cfg"),
           If
             ( Binop (Eq, Int 1L, Int 2L),
               Read (Concat [ Str "k:"; Var "v" ]),
               Read (Str "fixed") ) ))
  in
  let d = derive_ok f in
  (match classification d with
  | Derive.Dependent 1 -> ()
  | c -> Alcotest.fail (Format.asprintf "%a" Derive.pp_classification c));
  let d' = Optimize.optimize d in
  (match classification d' with
  | Derive.Static -> ()
  | c -> Alcotest.fail (Format.asprintf "%a" Derive.pp_classification c));
  let store = [ ("cfg", Dval.Str "c"); ("fixed", Dval.Int 7L) ] in
  let args = [ Dval.Str "u" ] in
  let fetches = ref 0 in
  let s =
    Derive.predict d'
      ~read:(fun k ->
        incr fetches;
        store_read store k)
      args
  in
  Alcotest.(check int) "no cache fetches" 0 !fetches;
  Alcotest.check rwset "cfg still validated" (actual_accesses f store args) s

let test_optimize_never_downgrades () =
  (* A genuinely dependent function must come through unchanged in
     class, and the optimized residual must agree with the raw one. *)
  let d = derive_ok timeline_fn in
  let d' = Optimize.optimize d in
  (match classification d' with
  | Derive.Dependent 1 -> ()
  | c -> Alcotest.fail (Format.asprintf "%a" Derive.pp_classification c));
  Alcotest.(check bool) "not an upgrade" false
    (Optimize.upgraded ~before:d ~after:d');
  let args = [ Dval.Str "u1" ] in
  Alcotest.check rwset "optimized == raw on coherent cache"
    (predict ~cache:follows_cache d args)
    (predict ~cache:follows_cache d' args)

let test_optimize_foreach_over_read_list () =
  (* Foreach over a store-read list: the optimizer must keep the list
     read as the single cache fetch and keep per-element reads aligned
     with iteration. *)
  let d = Optimize.optimize (derive_ok timeline_fn) in
  let fetches = ref 0 in
  let s =
    Derive.predict d
      ~read:(fun k ->
        incr fetches;
        store_read follows_cache k)
      [ Dval.Str "u1" ]
  in
  Alcotest.(check int) "single cache fetch" 1 !fetches;
  Alcotest.(check (list string)) "all reads, iteration order preserved"
    [ "follows:u1"; "posts:a"; "posts:b"; "posts:c" ]
    s.Rwset.reads

let test_optimize_nested_if_read_alignment () =
  (* Regression: [Optimize.demote] re-runs the relevance analysis on the
     SIMPLIFIED body. If Read ids were taken from the original body, the
     pruned outer branch would shift every id and the cfg read (still
     control-relevant for the inner If) could be demoted by mistake. *)
  let f =
    mk_fn "nested"
      (If
         ( Binop (Eq, Int 1L, Int 1L),
           Let
             ( "c",
               Read (Str "cfg"),
               If
                 ( Var "c",
                   Read (Concat [ Str "a:"; Input "x" ]),
                   Read (Str "b") ) ),
           Read (Str "dead") ))
  in
  let d = Optimize.optimize (derive_ok f) in
  (match classification d with
  | Derive.Dependent 1 -> ()
  | c ->
      Alcotest.fail
        (Format.asprintf "cfg must stay a fetched read, got %a"
           Derive.pp_classification c));
  List.iter
    (fun (cfg, expected_reads) ->
      let store =
        [ ("cfg", cfg); ("a:u", Dval.Int 1L); ("b", Dval.Int 2L) ]
      in
      let s = predict ~cache:store d [ Dval.Str "u" ] in
      Alcotest.(check (list string)) "reads follow the inner branch"
        expected_reads s.Rwset.reads;
      Alcotest.check rwset "exact vs execution"
        (actual_accesses f store [ Dval.Str "u" ])
        s)
    [
      (Dval.Bool true, [ "a:u"; "cfg" ]);
      (Dval.Bool false, [ "b"; "cfg" ]);
    ]

(* The soundness property: on a coherent cache, prediction equals the
   accesses of the real execution, for randomized inputs over a fixed
   corpus of analyzable functions. *)
let corpus = [ profile_fn; timeline_fn ]

let prop_prediction_sound =
  QCheck.Test.make ~name:"predicted rwset = actual accesses (coherent cache)"
    ~count:200
    QCheck.(pair (int_range 0 1) (int_range 0 9))
    (fun (which, user_n) ->
      let f = List.nth corpus which in
      let user = Printf.sprintf "u%d" user_n in
      let store =
        ("follows:" ^ user, Dval.List [ Dval.Str "x"; Dval.Str "y" ])
        :: ("posts:x", Dval.Str "px")
        :: ("posts:y", Dval.Str "py")
        :: [ ("user:" ^ user, Dval.Str user); ("posts:" ^ user, Dval.Str "") ]
      in
      let d = derive_ok f in
      let args = [ Dval.Str user ] in
      Rwset.equal
        (actual_accesses f store args)
        (Derive.predict d ~read:(store_read store) args))

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "analyzer"
    [
      ("rwset", [ Alcotest.test_case "normalization" `Quick test_rwset_normalization ]);
      ( "classification",
        [
          Alcotest.test_case "static" `Quick test_static_classification;
          Alcotest.test_case "dependent" `Quick test_dependent_classification;
          Alcotest.test_case "expensive" `Quick test_expensive_classification;
          Alcotest.test_case "opaque key unanalyzable" `Quick
            test_opaque_key_unanalyzable;
          Alcotest.test_case "opaque branch unanalyzable" `Quick
            test_opaque_branch_unanalyzable;
          Alcotest.test_case "opaque result ok" `Quick test_opaque_result_is_fine;
          Alcotest.test_case "nondeterministic key unanalyzable" `Quick
            test_nondeterministic_key_unanalyzable;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "static exact" `Quick test_static_prediction_exact;
          Alcotest.test_case "static: no cache fetch" `Quick
            test_static_prediction_no_cache_fetch;
          Alcotest.test_case "static: compute stripped" `Quick
            test_static_prediction_strips_compute;
          Alcotest.test_case "dependent exact" `Quick
            test_dependent_prediction_exact;
          Alcotest.test_case "dependent uses cache" `Quick
            test_dependent_prediction_uses_cache;
          Alcotest.test_case "dependent fetches only influencing" `Quick
            test_dependent_fetches_only_influencing;
          Alcotest.test_case "dependent: inner compute stripped" `Quick
            test_dependent_prediction_strips_inner_compute;
          Alcotest.test_case "expensive charges compute" `Quick
            test_expensive_prediction_charges_compute;
          Alcotest.test_case "branches follow control" `Quick
            test_branchy_prediction_follows_control;
          Alcotest.test_case "write-value reads logged" `Quick
            test_write_value_reads_are_logged;
          Alcotest.test_case "fan-out writes predicted" `Quick
            test_fanout_writes_predicted;
        ]
        @ qsuite [ prop_prediction_sound ] );
      ( "shapes",
        [
          Alcotest.test_case "summarize" `Quick test_summarize_shapes;
          Alcotest.test_case "join is sound" `Quick test_shape_join_sound;
          Alcotest.test_case "overlap and order" `Quick
            test_shape_overlap_and_order;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "pairwise verdicts" `Quick test_conflict_verdicts;
          Alcotest.test_case "order hazards" `Quick test_conflict_order_hazards;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "constant folding" `Quick
            test_simplify_folds_constants;
          Alcotest.test_case "equivalent arms collapse" `Quick
            test_optimize_collapses_equivalent_arms;
          Alcotest.test_case "dead dependent read demoted" `Quick
            test_optimize_demotes_dead_dependent_read;
          Alcotest.test_case "never downgrades" `Quick
            test_optimize_never_downgrades;
          Alcotest.test_case "foreach over read list" `Quick
            test_optimize_foreach_over_read_list;
          Alcotest.test_case "nested-if read alignment" `Quick
            test_optimize_nested_if_read_alignment;
        ] );
    ]
