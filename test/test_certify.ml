(* Bytecode effect certification (Analyzer.Certify / Wasm.Effect).

   Three layers of coverage:
   - whole-catalog differential property: the shapes the bytecode
     interpreter derives are subsumed by the source-level Absint
     summary for every handler, and are label-insensitively *equal*
     for every Static-classified handler;
   - mutation rejections: hand-mutated compiled modules (extra write,
     swapped key prefix, store-dependent key under a Static
     classification, injected external call) must each be rejected
     with an instruction-path diagnostic that resolves to the
     offending instruction;
   - the registration gate end to end: an under-predicting manual
     f^rw is refused by [Registry.register_manual] unless the
     certification escape hatch is off. *)

open Fdsl.Ast
module Absint = Analyzer.Absint
module Derive = Analyzer.Derive
module Certify = Analyzer.Certify
module Effect = Wasm.Effect
module Instr = Wasm.Instr
module Wmodule = Wasm.Wmodule

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let catalog_fn name =
  List.find (fun (f : func) -> f.fn_name = name) Apps.Catalog.all_functions

(* Raw derivation exactly as registration sees it (manual pairing for
   the catalog's manual overrides). *)
let raw_derived (f : func) =
  match Apps.Catalog.manual_rw_of f.fn_name with
  | Some rw -> Some (Derive.manual ~source:f ~rw_func:rw)
  | None -> ( match Derive.derive f with Ok d -> Some d | Error _ -> None)

let effect_of (f : func) =
  let m = Fdsl.Compile.compile f in
  match Effect.analyze ~params:f.params m ~entry:f.fn_name with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: bytecode analysis failed: %s" f.fn_name e

let certify ?modul (f : func) =
  let modul =
    match modul with Some m -> m | None -> Fdsl.Compile.compile f
  in
  Certify.check ~source:f ~modul ?derived:(raw_derived f) ()

(* --- Differential property over the whole catalog -------------------- *)

let covered declared s =
  List.exists (fun d -> Absint.subsumes d s) declared

let test_catalog_subsumption () =
  List.iter
    (fun (f : func) ->
      let sm = Absint.summarize f in
      let eff = effect_of f in
      List.iter
        (fun s ->
          if not (covered sm.Absint.sm_reads s) then
            Alcotest.failf "%s: bytecode read %s not subsumed by source %s"
              f.fn_name
              (Absint.shape_to_string s)
              (String.concat " "
                 (List.map Absint.shape_to_string sm.Absint.sm_reads)))
        (Effect.reads eff);
      List.iter
        (fun s ->
          if not (covered sm.Absint.sm_writes s) then
            Alcotest.failf "%s: bytecode write %s not subsumed by source %s"
              f.fn_name
              (Absint.shape_to_string s)
              (String.concat " "
                 (List.map Absint.shape_to_string sm.Absint.sm_writes)))
        (Effect.writes eff))
    Apps.Catalog.all_functions

(* For Static functions the two analyses must agree exactly (up to hole
   labels): the bytecode view is not just sound but precise. *)
let test_static_exactness () =
  let set_equal a b =
    List.for_all (fun s -> List.exists (Absint.same_shape s) b) a
    && List.for_all (fun s -> List.exists (Absint.same_shape s) a) b
  in
  let checked = ref 0 in
  List.iter
    (fun (f : func) ->
      match Derive.derive f with
      | Ok { Derive.classification = Derive.Static; _ } ->
          incr checked;
          let sm = Absint.summarize f in
          let eff = effect_of f in
          if not (set_equal (Effect.reads eff) sm.Absint.sm_reads) then
            Alcotest.failf "%s: static reads differ (bytecode: %s)" f.fn_name
              (String.concat " "
                 (List.map Absint.shape_to_string (Effect.reads eff)));
          if not (set_equal (Effect.writes eff) sm.Absint.sm_writes) then
            Alcotest.failf "%s: static writes differ (bytecode: %s)" f.fn_name
              (String.concat " "
                 (List.map Absint.shape_to_string (Effect.writes eff)))
      | _ -> ())
    Apps.Catalog.all_functions;
  Alcotest.(check bool) "catalog has static functions" true (!checked > 0)

let test_catalog_all_certified () =
  List.iter
    (fun (f : func) ->
      let r = certify f in
      if not (Certify.certified r) then
        Alcotest.failf "%s: %s" f.fn_name
          (Format.asprintf "%a" Certify.pp_failure r))
    Apps.Catalog.all_functions

(* --- Mutation rejections --------------------------------------------- *)

(* Rebuild a compiled module with the entry function's body mutated
   (and any extra host imports the mutation needs). *)
let mutate (f : func) ?(extra_imports = []) g =
  let m = Fdsl.Compile.compile f in
  let idx =
    match Wmodule.find m f.fn_name with
    | Some i -> i
    | None -> Alcotest.failf "%s: entry missing from module" f.fn_name
  in
  let funcs =
    Array.mapi
      (fun i (fn : Wmodule.func) ->
        if i = idx then { fn with Wmodule.body = g fn.Wmodule.body } else fn)
      m.Wmodule.funcs
  in
  let imports =
    List.sort_uniq compare (extra_imports @ m.Wmodule.imports)
  in
  { Wmodule.funcs; imports }

let mutated_body m (f : func) =
  match Wmodule.find m f.fn_name with
  | Some i -> (Wmodule.func m i).Wmodule.body
  | None -> Alcotest.failf "%s: entry missing from module" f.fn_name

let issue_access (i : Certify.issue) =
  match i.Certify.i_access with
  | Some a -> a
  | None -> Alcotest.fail "issue carries no access"

(* A compiler bug (or hostile registrant) that sneaks in an extra
   write: appended after the result, outside every declared shape. *)
let test_mutation_extra_write () =
  let f = catalog_fn "social-login" in
  let m =
    mutate f ~extra_imports:[ "storage.write" ] (fun body ->
        body
        @ [
            Instr.Drop;
            Instr.Ref_const (Dval.Str "sneaky:k");
            Instr.Ref_const Dval.Unit;
            Instr.Call_host "storage.write";
          ])
  in
  let r = certify ~modul:m f in
  Alcotest.(check bool) "rejected" false (Certify.certified r);
  let bad =
    List.find
      (fun (i : Certify.issue) ->
        match i.Certify.i_problem with
        | Certify.Uncovered _ -> (issue_access i).Effect.a_kind = Effect.Write
        | _ -> false)
      r.Certify.c_issues
  in
  let path = (issue_access bad).Effect.a_path in
  Alcotest.(check bool) "path nonempty" true (path <> []);
  (* the diagnostic points at the injected storage.write *)
  match Instr.at_path (mutated_body m f) path with
  | Some (Instr.Call_host "storage.write") -> ()
  | other ->
      Alcotest.failf "path %s resolves to %s" (Instr.path_to_string path)
        (match other with
        | Some i -> Format.asprintf "%a" Instr.pp i
        | None -> "nothing")

(* Key prefix swapped inside the compiled stream: the bytecode now
   reads hijack:<u> while f^rw still declares timeline:<u>. *)
let test_mutation_swapped_prefix () =
  let f = catalog_fn "social-timeline" in
  let rec subst = function
    | Instr.Ref_const (Dval.Str "timeline:") ->
        Instr.Ref_const (Dval.Str "hijack:")
    | Instr.Block b -> Instr.Block (List.map subst b)
    | Instr.Loop b -> Instr.Loop (List.map subst b)
    | Instr.If (t, e) -> Instr.If (List.map subst t, List.map subst e)
    | i -> i
  in
  let m = mutate f (List.map subst) in
  let r = certify ~modul:m f in
  Alcotest.(check bool) "rejected" false (Certify.certified r);
  let bad =
    List.find
      (fun (i : Certify.issue) ->
        match i.Certify.i_problem with
        | Certify.Uncovered _ -> (issue_access i).Effect.a_kind = Effect.Read
        | _ -> false)
      r.Certify.c_issues
  in
  let a = issue_access bad in
  Alcotest.(check bool) "path nonempty" true (a.Effect.a_path <> []);
  Alcotest.(check bool) "shape names the hijacked prefix" true
    (contains (Absint.shape_to_string a.Effect.a_shape) "hijack:")

(* An input-determined key demoted to store-dependent: the first use of
   parameter [u] is replaced by a storage read, so the user: key's
   origin strengthens past what the Static classification admits. *)
let test_mutation_demoted_origin () =
  let f = catalog_fn "social-login" in
  let replaced = ref false in
  let rec subst_list body =
    List.concat_map
      (fun i ->
        match i with
        | Instr.Local_get 0 when not !replaced ->
            replaced := true;
            [ Instr.Ref_const (Dval.Str "cfg"); Instr.Call_host "storage.read" ]
        | Instr.Block b -> [ Instr.Block (subst_list b) ]
        | Instr.Loop b -> [ Instr.Loop (subst_list b) ]
        | Instr.If (t, e) -> [ Instr.If (subst_list t, subst_list e) ]
        | i -> [ i ])
      body
  in
  let m = mutate f subst_list in
  Alcotest.(check bool) "mutation applied" true !replaced;
  let r = certify ~modul:m f in
  Alcotest.(check bool) "rejected" false (Certify.certified r);
  let static_violation =
    List.find_opt
      (fun (i : Certify.issue) ->
        match i.Certify.i_problem with
        | Certify.Static_violation _ -> true
        | _ -> false)
      r.Certify.c_issues
  in
  let weak_origin =
    List.find_opt
      (fun (i : Certify.issue) ->
        match i.Certify.i_problem with
        | Certify.Weak_origin _ -> true
        | _ -> false)
      r.Certify.c_issues
  in
  (match static_violation with
  | Some i ->
      Alcotest.(check bool) "static-violation path nonempty" true
        ((issue_access i).Effect.a_path <> [])
  | None -> Alcotest.fail "no Static_violation issue");
  match weak_origin with
  | Some i ->
      Alcotest.(check bool) "weak-origin path nonempty" true
        ((issue_access i).Effect.a_path <> [])
  | None -> Alcotest.fail "no Weak_origin issue"

(* An external.call injected into a function whose source declares no
   external service. *)
let test_mutation_injected_external () =
  let f = catalog_fn "social-follow" in
  let m =
    mutate f ~extra_imports:[ "external.call" ] (fun body ->
        body
        @ [
            Instr.Drop;
            Instr.Ref_const (Dval.Str "mailer");
            Instr.Ref_const Dval.Unit;
            Instr.Call_host "external.call";
          ])
  in
  let r = certify ~modul:m f in
  Alcotest.(check bool) "rejected" false (Certify.certified r);
  let bad =
    List.find_opt
      (fun (i : Certify.issue) ->
        match i.Certify.i_problem with
        | Certify.Undeclared_external s -> s = "mailer"
        | _ -> false)
      r.Certify.c_issues
  in
  Alcotest.(check bool) "undeclared-external issue present" true
    (bad <> None);
  (* and the analysis recorded the call site's instruction path *)
  let eff =
    match r.Certify.c_effect with
    | Some e -> e
    | None -> Alcotest.fail "no effect summary"
  in
  Alcotest.(check bool) "external site has a path" true
    (List.exists
       (fun (p, s) -> s = "mailer" && p <> [])
       eff.Effect.ef_externals)

(* --- Effect interpreter corners -------------------------------------- *)

(* A known condition only explores the taken arm, mirroring Absint. *)
let test_known_cond_skips_arm () =
  let f =
    {
      fn_name = "condskip";
      params = [ "u" ];
      body =
        If
          ( Bool true,
            Read (Concat [ Str "a:"; Input "u" ]),
            Read (Concat [ Str "b:"; Input "u" ]) );
    }
  in
  let eff = effect_of f in
  let reads = List.map Absint.shape_to_string (Effect.reads eff) in
  Alcotest.(check int) "one read" 1 (List.length reads);
  Alcotest.(check bool) "then-arm only" true (contains (List.hd reads) "a:")

(* Loop accesses are flagged multi, and the compiled Foreach widens to
   a single shape instead of unrolling. *)
let test_loop_accesses_flagged () =
  let eff = effect_of (catalog_fn "social-post") in
  Alcotest.(check bool) "multi shapes nonempty" true (Effect.multi eff <> []);
  Alcotest.(check bool) "some access in a loop" true
    (List.exists (fun a -> a.Effect.a_loop) eff.Effect.ef_accesses)

(* Widening forces termination on a hand-written counting loop the
   fixpoint could otherwise chase for 1000 iterations. *)
let test_loop_widening_terminates () =
  let m =
    Wmodule.create
      ~funcs:
        [
          {
            Wmodule.fn_name = "spin";
            n_params = 0;
            n_locals = 1;
            body =
              [
                Instr.Block
                  [
                    Instr.Loop
                      [
                        Instr.Local_get 0;
                        Instr.I64_const 1L;
                        Instr.I64_binop Instr.Add;
                        Instr.Local_set 0;
                        Instr.Local_get 0;
                        Instr.I64_const 1000L;
                        Instr.I64_binop Instr.Lt_s;
                        Instr.Br_if 0;
                      ];
                  ];
                Instr.I64_const 0L;
              ];
          };
        ]
      ~imports:[]
  in
  match Effect.analyze m ~entry:"spin" with
  | Ok s ->
      Alcotest.(check int) "no accesses" 0 (List.length s.Effect.ef_accesses)
  | Error e -> Alcotest.failf "analysis failed: %s" e

(* --- Registration gate ----------------------------------------------- *)

(* Same lie as the propagation regression: the manual f^rw declares
   only the first of two writes. With the gate on, registration must
   refuse; with the escape hatch, the seed pipeline is back. *)
let lying_fn =
  {
    fn_name = "liar";
    params = [ "u" ];
    body =
      Seq
        [
          Write (Concat [ Str "lie:a:"; Input "u" ], Input "u");
          Write (Concat [ Str "lie:b:"; Input "u" ], Input "u");
          Input "u";
        ];
  }

let lying_rw =
  {
    fn_name = "liar^rw";
    params = [ "u" ];
    body = Declare (Decl_write, Concat [ Str "lie:a:"; Input "u" ]);
  }

let test_gate_rejects_lying_manual () =
  let reg = Radical.Registry.create () in
  match Radical.Registry.register_manual reg lying_fn ~rw_func:lying_rw with
  | Ok _ -> Alcotest.fail "under-predicting manual f^rw was accepted"
  | Error msg ->
      Alcotest.(check bool) "names the certifier" true
        (contains msg "effect certification failed");
      Alcotest.(check bool) "names the lie" true (contains msg "lie:b:")

let test_gate_escape_hatch () =
  let reg = Radical.Registry.create ~certify:false () in
  match Radical.Registry.register_manual reg lying_fn ~rw_func:lying_rw with
  | Error msg -> Alcotest.failf "gate off, yet rejected: %s" msg
  | Ok e ->
      Alcotest.(check bool) "no certificate stored" true
        (e.Radical.Registry.certificate = None)

(* The gate is a property of one registry: an uncertified registry
   accepting the lie leaves a default one created after it gated. *)
let test_gate_is_per_registry () =
  let loose = Radical.Registry.create ~certify:false () in
  (match Radical.Registry.register_manual loose lying_fn ~rw_func:lying_rw with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "gate off, yet rejected: %s" msg);
  let strict = Radical.Registry.create () in
  match Radical.Registry.register_manual strict lying_fn ~rw_func:lying_rw with
  | Ok _ -> Alcotest.fail "default registry accepted the lie"
  | Error msg ->
      Alcotest.(check bool) "names the certifier" true
        (contains msg "effect certification failed")

let test_honest_registration_carries_certificate () =
  let reg = Radical.Registry.create () in
  match Radical.Registry.register reg (catalog_fn "social-login") with
  | Error msg -> Alcotest.failf "registration failed: %s" msg
  | Ok e -> (
      match e.Radical.Registry.certificate with
      | Some r -> Alcotest.(check bool) "certified" true (Certify.certified r)
      | None -> Alcotest.fail "no certificate on a gated registration")

let () =
  Alcotest.run "certify"
    [
      ( "differential",
        [
          Alcotest.test_case "bytecode shapes subsumed by source summary"
            `Quick test_catalog_subsumption;
          Alcotest.test_case "static functions match exactly" `Quick
            test_static_exactness;
          Alcotest.test_case "whole catalog certifies" `Quick
            test_catalog_all_certified;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "extra write rejected" `Quick
            test_mutation_extra_write;
          Alcotest.test_case "swapped key prefix rejected" `Quick
            test_mutation_swapped_prefix;
          Alcotest.test_case "demoted key origin rejected" `Quick
            test_mutation_demoted_origin;
          Alcotest.test_case "injected external rejected" `Quick
            test_mutation_injected_external;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "known condition skips untaken arm" `Quick
            test_known_cond_skips_arm;
          Alcotest.test_case "loop accesses flagged multi" `Quick
            test_loop_accesses_flagged;
          Alcotest.test_case "loop widening terminates" `Quick
            test_loop_widening_terminates;
        ] );
      ( "gate",
        [
          Alcotest.test_case "lying manual f^rw refused" `Quick
            test_gate_rejects_lying_manual;
          Alcotest.test_case "escape hatch restores seed pipeline" `Quick
            test_gate_escape_hatch;
          Alcotest.test_case "honest registration carries certificate" `Quick
            test_honest_registration_carries_certificate;
          Alcotest.test_case "gate does not leak between registries" `Quick
            test_gate_is_per_registry;
        ] );
    ]
