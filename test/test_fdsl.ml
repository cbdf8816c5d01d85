(* Tests for the function DSL: evaluator semantics, and equivalence
   between the evaluator and code compiled to the deterministic VM. *)

open Fdsl
open Ast

let plain = Eval.host ()

let ev ?(host = plain) ?(params = []) ?(args = []) body =
  Eval.eval host { fn_name = "t"; params; body } args

let check_dval msg expected got =
  Alcotest.(check string) msg (Dval.to_string expected) (Dval.to_string got)

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)

let test_literals_and_let () =
  check_dval "int" (Dval.Int 5L) (ev (Int 5L));
  check_dval "let" (Dval.Int 8L)
    (ev (Let ("x", Int 3L, Binop (Add, Var "x", Int 5L))));
  check_dval "shadowing" (Dval.Int 2L)
    (ev (Let ("x", Int 1L, Let ("x", Int 2L, Var "x"))))

let test_inputs () =
  check_dval "inputs bind" (Dval.Str "hi-7")
    (ev ~params:[ "s"; "n" ]
       ~args:[ Dval.Str "hi-"; Dval.Int 7L ]
       (Concat [ Input "s"; Str_of_int (Input "n") ]))

let test_arity_error () =
  Alcotest.check_raises "arity" (Eval.Error "t expects 1 arguments, got 0")
    (fun () -> ignore (ev ~params:[ "x" ] (Var "x")))

let test_truthiness () =
  let t v = Eval.truthy v in
  Alcotest.(check bool) "0 falsy" false (t (Dval.Int 0L));
  Alcotest.(check bool) "1 truthy" true (t (Dval.Int 1L));
  Alcotest.(check bool) "empty str falsy" false (t (Dval.Str ""));
  Alcotest.(check bool) "empty list falsy" false (t (Dval.List []));
  Alcotest.(check bool) "record truthy" true (t (Dval.Record []))

let test_if () =
  check_dval "then" (Dval.Str "y") (ev (If (Int 3L, Str "y", Str "n")));
  check_dval "else" (Dval.Str "n") (ev (If (Str "", Str "y", Str "n")))

let test_arith_and_compare () =
  check_dval "mod" (Dval.Int 2L) (ev (Binop (Mod, Int 17L, Int 5L)));
  check_dval "lt" (Dval.Bool true) (ev (Binop (Lt, Int 1L, Int 2L)));
  check_dval "eq str" (Dval.Bool true) (ev (Binop (Eq, Str "a", Str "a")));
  check_dval "ne mixed" (Dval.Bool true) (ev (Binop (Ne, Str "1", Int 1L)));
  Alcotest.check_raises "div zero" (Eval.Error "division by zero") (fun () ->
      ignore (ev (Binop (Div, Int 1L, Int 0L))))

let test_short_circuit () =
  (* The right operand must not evaluate when the left decides. *)
  let writes = ref [] in
  let host = Eval.host ~write:(fun k _ -> writes := k :: !writes) () in
  ignore
    (ev ~host
       (Binop (And, Bool false, Seq [ Write (Str "boom", Unit); Bool true ])));
  Alcotest.(check (list string)) "and skipped rhs" [] !writes;
  ignore
    (ev ~host
       (Binop (Or, Bool true, Seq [ Write (Str "boom", Unit); Bool true ])));
  Alcotest.(check (list string)) "or skipped rhs" [] !writes

let test_lists () =
  check_dval "append" (Dval.List [ Dval.Int 1L; Dval.Int 2L ])
    (ev (Append (List_lit [ Int 1L ], Int 2L)));
  check_dval "prepend"
    (Dval.List [ Dval.Int 0L; Dval.Int 1L ])
    (ev (Prepend (List_lit [ Int 1L ], Int 0L)));
  check_dval "take" (Dval.List [ Dval.Int 1L ])
    (ev (Take (List_lit [ Int 1L; Int 2L ], Int 1L)));
  check_dval "length" (Dval.Int 3L)
    (ev (Length (List_lit [ Unit; Unit; Unit ])));
  check_dval "nth" (Dval.Int 20L)
    (ev (Nth (List_lit [ Int 10L; Int 20L ], Int 1L)));
  Alcotest.check_raises "nth out of bounds" (Eval.Error "index 5 out of bounds")
    (fun () -> ignore (ev (Nth (List_lit [ Int 1L ], Int 5L))))

let test_records () =
  check_dval "field" (Dval.Str "bob")
    (ev (Field (Record_lit [ ("name", Str "bob") ], "name")));
  check_dval "set_field" (Dval.Int 2L)
    (ev
       (Field
          ( Set_field (Record_lit [ ("v", Int 1L) ], "v", Int 2L),
            "v" )));
  Alcotest.check_raises "missing field" (Eval.Error "no field zzz") (fun () ->
      ignore (ev (Field (Record_lit [], "zzz"))))

let test_foreach_maps () =
  check_dval "doubled"
    (Dval.List [ Dval.Int 2L; Dval.Int 4L; Dval.Int 6L ])
    (ev
       (Foreach
          ( "x",
            List_lit [ Int 1L; Int 2L; Int 3L ],
            Binop (Mul, Var "x", Int 2L) )))

let test_storage_host () =
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl "greeting" (Dval.Str "hello");
  let host =
    Eval.host
      ~read:(fun k ->
        Option.value ~default:Dval.Unit (Hashtbl.find_opt tbl k))
      ~write:(fun k v -> Hashtbl.replace tbl k v)
      ()
  in
  check_dval "read" (Dval.Str "hello") (ev ~host (Read (Str "greeting")));
  ignore (ev ~host (Write (Str "out", Concat [ Read (Str "greeting"); Str "!" ])));
  check_dval "write visible" (Dval.Str "hello!") (ev ~host (Read (Str "out")))

let test_compute_charges () =
  let total = ref 0.0 in
  let host = Eval.host ~compute:(fun ms -> total := !total +. ms) () in
  ignore (ev ~host (Compute (100.0, Compute (20.0, Int 1L))));
  Alcotest.(check (float 1e-9)) "compute sum" 120.0 !total

let test_declare_hook () =
  let seen = ref [] in
  let host = Eval.host ~declare:(fun d k -> seen := (d = Decl_write, k) :: !seen) () in
  ignore (ev ~host (Seq [ Declare (Decl_read, Str "a"); Declare (Decl_write, Str "b") ]));
  Alcotest.(check (list (pair bool string))) "declares"
    [ (false, "a"); (true, "b") ]
    (List.rev !seen)

let test_nondeterministic_defaults_raise () =
  Alcotest.check_raises "time" (Eval.Error "time_now: nondeterministic source")
    (fun () -> ignore (ev Time_now))

(* ------------------------------------------------------------------ *)
(* Compile/eval agreement                                              *)

let initial_store =
  [
    ("k0", Dval.Str "alpha");
    ("k1", Dval.Str "beta");
    ("k2", Dval.Str "gamma");
    ("k3", Dval.Str "delta");
  ]

(* Run a function both ways against identical stores; compare results,
   write traces, and compute totals. *)
let both (f : Ast.func) args =
  let ev_tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace ev_tbl k v) initial_store;
  let ev_writes = ref [] in
  let ev_compute = ref 0.0 in
  let ev_host =
    Eval.host
      ~read:(fun k -> Option.value ~default:Dval.Unit (Hashtbl.find_opt ev_tbl k))
      ~write:(fun k v ->
        Hashtbl.replace ev_tbl k v;
        ev_writes := (k, v) :: !ev_writes)
      ~compute:(fun ms -> ev_compute := !ev_compute +. ms)
      ()
  in
  let ev_result =
    match Eval.eval ev_host f args with
    | v -> Ok v
    | exception Eval.Error e -> Error e
  in
  let m = Compile.compile f in
  let wasm_compute = ref 0.0 in
  let wasm_host, wasm_writes = Wasm.Host.recording ~store:initial_store () in
  let wasm_host = { wasm_host with compute = (fun ms -> wasm_compute := !wasm_compute +. ms) } in
  let wasm_result = Wasm.Interp.run m ~host:wasm_host ~entry:f.fn_name args in
  ( (ev_result, List.rev !ev_writes, !ev_compute),
    (wasm_result, wasm_writes (), !wasm_compute) )

let check_agree name f args =
  let (er, ew, ec), (wr, ww, wc) = both f args in
  (match (er, wr) with
  | Ok a, Ok b ->
      Alcotest.(check string) (name ^ ": result") (Dval.to_string a)
        (Dval.to_string b)
  | Error _, Error _ -> ()
  | Ok v, Error e ->
      Alcotest.fail
        (Printf.sprintf "%s: eval gave %s, VM trapped: %s" name
           (Dval.to_string v) e)
  | Error e, Ok v ->
      Alcotest.fail
        (Printf.sprintf "%s: eval errored (%s), VM gave %s" name e
           (Dval.to_string v)));
  Alcotest.(check (list (pair string string)))
    (name ^ ": writes")
    (List.map (fun (k, v) -> (k, Dval.to_string v)) ew)
    (List.map (fun (k, v) -> (k, Dval.to_string v)) ww);
  Alcotest.(check (float 1e-9)) (name ^ ": compute") ec wc

let sample_timeline =
  (* read a list of ids, read each one's record, concat names. *)
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
              Compute (2.0, Read (Concat [ Str "posts:"; Var "id" ])) ) );
  }

let test_compiled_timeline () =
  let store =
    [
      ("follows:u1", Dval.List [ Dval.Str "a"; Dval.Str "b" ]);
      ("posts:a", Dval.Str "pa");
      ("posts:b", Dval.Str "pb");
    ]
  in
  let m = Compile.compile sample_timeline in
  (match Wasm.Validate.check m with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wasm.Validate.pp_error e));
  let host, _ = Wasm.Host.recording ~store () in
  match Wasm.Interp.run m ~host ~entry:"timeline" [ Dval.Str "u1" ] with
  | Ok v ->
      check_dval "timeline result" (Dval.List [ Dval.Str "pa"; Dval.Str "pb" ]) v
  | Error e -> Alcotest.fail e

let test_compile_agreement_samples () =
  check_agree "write-read"
    {
      fn_name = "wr";
      params = [ "k" ];
      body =
        Seq
          [
            Write (Input "k", Concat [ Read (Str "k0"); Str "!" ]);
            Read (Input "k");
          ];
    }
    [ Dval.Str "dest" ];
  check_agree "branchy"
    {
      fn_name = "br";
      params = [ "n" ];
      body =
        If
          ( Binop (Gt, Input "n", Int 10L),
            Write (Str "big", Input "n"),
            Write (Str "small", Input "n") );
    }
    [ Dval.Int 20L ];
  check_agree "compute"
    { fn_name = "c"; params = []; body = Compute (50.0, Int 1L) }
    [];
  check_agree "records"
    {
      fn_name = "rec";
      params = [];
      body =
        Field
          ( Set_field (Record_lit [ ("a", Int 1L); ("b", Str "x") ], "a", Int 9L),
            "a" );
    }
    []

(* [take] stops after [n] elements: nothing for [n <= 0], the whole
   list once [n] reaches its length, the same in the evaluator and the
   VM. *)
let test_take_edges () =
  let ints l = Dval.List (List.map (fun i -> Dval.Int (Int64.of_int i)) l) in
  List.iter
    (fun (n, want) ->
      let body = Take (List_lit [ Int 1L; Int 2L; Int 3L ], Int (Int64.of_int n)) in
      let name = Printf.sprintf "take %d" n in
      check_dval name (ints want) (ev body);
      check_agree name { fn_name = "take"; params = []; body } [])
    [
      (min_int, []);
      (-1, []);
      (0, []);
      (1, [ 1 ]);
      (2, [ 1; 2 ]);
      (3, [ 1; 2; 3 ]);
      (4, [ 1; 2; 3 ]);
      (max_int, [ 1; 2; 3 ]);
    ];
  check_dval "take from empty" (Dval.List []) (ev (Take (List_lit [], Int 5L)))

let test_compile_nondeterministic_rejected () =
  let f = { fn_name = "nd"; params = []; body = Binop (Add, Time_now, Int 1L) } in
  let m = Compile.compile f in
  match Wasm.Validate.check m with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation failure"

let test_compile_declare_unsupported () =
  let f = { fn_name = "d"; params = []; body = Declare (Decl_read, Str "k") } in
  match Compile.compile f with
  | exception Compile.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* Random typed programs: generator keeps programs well-typed so both
   implementations must agree on everything observable. *)
type ty = I | S | B

let gen_program =
  let open QCheck.Gen in
  let str_const = map (fun c -> Str (String.make 1 c)) (char_range 'a' 'e') in
  let keys = [ "k0"; "k1"; "k2"; "k3" ] in
  let rec gen ty env n =
    if n <= 0 then leaf ty env
    else
      let sub = gen in
      let recurse =
        match ty with
        | I ->
            [
              ( 3,
                map3
                  (fun op a b -> Binop (op, a, b))
                  (oneofl [ Add; Sub; Mul ])
                  (sub I env (n / 2)) (sub I env (n / 2)) );
              ( 1,
                map3 (fun c a b -> If (c, a, b)) (sub B env (n / 2))
                  (sub I env (n / 2)) (sub I env (n / 2)) );
              ( 1,
                sub I (("v", I) :: env) (n / 2)
                >>= fun body ->
                map (fun v -> Let ("v", v, body)) (sub I env (n / 2)) );
            ]
        | S ->
            [
              ( 3,
                map2 (fun a b -> Concat [ a; b ]) (sub S env (n / 2))
                  (sub S env (n / 2)) );
              (2, map (fun e -> Str_of_int e) (sub I env (n / 2)));
              ( 1,
                map3 (fun c a b -> If (c, a, b)) (sub B env (n / 2))
                  (sub S env (n / 2)) (sub S env (n / 2)) );
              ( 1,
                map2
                  (fun k body -> Seq [ Write (Str k, body); Read (Str k) ])
                  (oneofl [ "w0"; "w1" ])
                  (sub S env (n / 2)) );
            ]
        | B ->
            [
              ( 2,
                map2 (fun a b -> Binop (Eq, a, b)) (sub I env (n / 2))
                  (sub I env (n / 2)) );
              ( 2,
                map2 (fun a b -> Binop (Lt, a, b)) (sub I env (n / 2))
                  (sub I env (n / 2)) );
              ( 1,
                map2 (fun a b -> Binop (And, a, b)) (sub B env (n / 2))
                  (sub B env (n / 2)) );
              ( 1,
                map2 (fun a b -> Binop (Or, a, b)) (sub B env (n / 2))
                  (sub B env (n / 2)) );
              (1, map (fun e -> Not e) (sub B env (n / 2)));
            ]
      in
      frequency ((2, leaf ty env) :: recurse)
  and leaf ty env =
    let vars = List.filter (fun (_, t) -> t = ty) env in
    let var_gens = List.map (fun (x, _) -> (1, QCheck.Gen.return (Var x))) vars in
    let consts =
      match ty with
      | I -> [ (2, map (fun i -> Int (Int64.of_int i)) (int_range (-20) 20)) ]
      | S -> [ (2, str_const); (1, map (fun k -> Read (Str k)) (oneofl keys)) ]
      | B -> [ (2, map (fun b -> Bool b) bool) ]
    in
    frequency (consts @ var_gens)
  in
  sized (fun n ->
      let n = min n 30 in
      let open QCheck.Gen in
      oneofl [ I; S; B ] >>= fun ty ->
      gen ty [ ("p", I) ] n >>= fun body ->
      return { fn_name = "prog"; params = [ "p" ]; body })

let prop_compile_agrees_with_eval =
  QCheck.Test.make ~name:"compiled code agrees with the evaluator" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Ast.pp_func) gen_program)
    (fun f ->
      let (er, ew, ec), (wr, ww, wc) = both f [ Dval.Int 7L ] in
      let results_agree =
        match (er, wr) with
        | Ok a, Ok b -> Dval.equal a b
        | Error _, Error _ -> true
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      results_agree
      && List.length ew = List.length ww
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && Dval.equal v1 v2)
           ew ww
      && Float.abs (ec -. wc) < 1e-9)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fdsl"
    [
      ( "eval",
        [
          Alcotest.test_case "literals and let" `Quick test_literals_and_let;
          Alcotest.test_case "inputs" `Quick test_inputs;
          Alcotest.test_case "arity error" `Quick test_arity_error;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "arith and compare" `Quick test_arith_and_compare;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "lists" `Quick test_lists;
          Alcotest.test_case "records" `Quick test_records;
          Alcotest.test_case "foreach maps" `Quick test_foreach_maps;
          Alcotest.test_case "storage host" `Quick test_storage_host;
          Alcotest.test_case "compute charges" `Quick test_compute_charges;
          Alcotest.test_case "declare hook" `Quick test_declare_hook;
          Alcotest.test_case "nondeterministic defaults raise" `Quick
            test_nondeterministic_defaults_raise;
        ] );
      ( "compile",
        [
          Alcotest.test_case "timeline through VM" `Quick test_compiled_timeline;
          Alcotest.test_case "agreement samples" `Quick
            test_compile_agreement_samples;
          Alcotest.test_case "take edges" `Quick test_take_edges;
          Alcotest.test_case "nondeterministic rejected" `Quick
            test_compile_nondeterministic_rejected;
          Alcotest.test_case "declare unsupported" `Quick
            test_compile_declare_unsupported;
        ]
        @ qsuite [ prop_compile_agrees_with_eval ] );
    ]
