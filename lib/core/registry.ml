type entry = {
  func : Fdsl.Ast.func;
  modul : Wasm.Wmodule.t;
  raw_derived : Analyzer.Derive.t option;
  derived : Analyzer.Derive.t option;
  summary : Analyzer.Absint.summary;
  read_only : bool;
  certificate : Analyzer.Certify.report option;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable conflicts : Analyzer.Conflict.report option;
      (* Memoized whole-program conflict report; invalidated whenever
         the set of registered functions changes. *)
  degrees : (string, int) Hashtbl.t;
      (* Per-function conflict degree, memoized alongside [conflicts]
         because the runtime asks on every invocation. *)
  verdicts :
    (string, (string, Analyzer.Conflict.verdict option) Hashtbl.t) Hashtbl.t;
      (* Per-pair static verdict, memoized for the same reason:
         admission asks for every pair of requests sharing a key. One
         row per function, keyed by the other function's name, so a
         lookup builds no pair and allocates nothing. *)
}

let create () =
  {
    entries = Hashtbl.create 32;
    conflicts = None;
    degrees = Hashtbl.create 32;
    verdicts = Hashtbl.create 64;
  }

(* A function is statically read-only when the abstract interpretation
   of its *source* proves it writes no key and calls no external
   service. The summary is total (unanalyzable keys degrade to the
   wildcard, which would land in sm_writes if written), so this is sound
   even for functions the residual derivation rejects. *)
let is_read_only (sm : Analyzer.Absint.summary) =
  sm.sm_writes = [] && not sm.sm_external

(* Effect certification (translation validation of f^rw against the
   compiled bytecode) runs as a hard registration gate by default. The
   escape hatch exists so deployments can fall back to the seed
   behavior bit for bit — with it off, registration performs exactly
   the seed's compile/validate/analyze pipeline. *)
let certification = ref true

let set_certification enabled = certification := enabled

(* Both registration paths share everything except how f^rw is
   obtained; [derive] returns [(raw, optimized)] or a fatal error. *)
let validate_and_store t (f : Fdsl.Ast.func) ~derive =
  if Hashtbl.mem t.entries f.fn_name then
    Error (Printf.sprintf "%s: already registered" f.fn_name)
  else
    match Fdsl.Compile.compile f with
    | exception Fdsl.Compile.Unsupported reason ->
        Error (Printf.sprintf "%s: %s" f.fn_name reason)
    | modul -> (
        match Wasm.Validate.check_all modul with
        | Error e ->
            Error
              (Format.asprintf "%s: determinism validation failed: %a"
                 f.fn_name Wasm.Validate.pp_error e)
        | Ok () -> (
            match derive () with
            | Error m -> Error m
            | Ok (raw_derived, derived) -> (
                let certificate =
                  if !certification then
                    Some
                      (Analyzer.Certify.check ~source:f ~modul
                         ?derived:raw_derived ())
                  else None
                in
                match certificate with
                | Some r when not (Analyzer.Certify.certified r) ->
                    Error
                      (Format.asprintf "%s: effect certification failed: %a"
                         f.fn_name Analyzer.Certify.pp_failure r)
                | _ ->
                    let summary = Analyzer.Absint.summarize f in
                    let entry =
                      {
                        func = f;
                        modul;
                        raw_derived;
                        derived;
                        summary;
                        read_only = is_read_only summary;
                        certificate;
                      }
                    in
                    Hashtbl.replace t.entries f.fn_name entry;
                    t.conflicts <- None;
                    Hashtbl.reset t.degrees;
                    Hashtbl.reset t.verdicts;
                    Ok entry)))

let register t (f : Fdsl.Ast.func) =
  validate_and_store t f ~derive:(fun () ->
      let raw_derived =
        match Analyzer.Derive.derive f with
        | Ok d -> Some d
        | Error _ -> None
      in
      Ok (raw_derived, Option.map Analyzer.Optimize.optimize raw_derived))

let register_manual t (f : Fdsl.Ast.func) ~rw_func =
  validate_and_store t f ~derive:(fun () ->
      match Analyzer.Derive.manual ~source:f ~rw_func with
      | exception Invalid_argument m -> Error m
      | derived -> Ok (Some derived, Some derived))

let find t name = Hashtbl.find_opt t.entries name

let names t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [])

let analyzable_count t =
  Hashtbl.fold
    (fun _ e acc -> if e.derived <> None then acc + 1 else acc)
    t.entries 0

let conflicts t =
  match t.conflicts with
  | Some r -> r
  | None ->
      let summaries =
        List.filter_map
          (fun n -> Option.map (fun e -> e.summary) (find t n))
          (names t)
      in
      let r = Analyzer.Conflict.build summaries in
      t.conflicts <- Some r;
      r

let conflict_degree t name =
  match Hashtbl.find_opt t.degrees name with
  | Some d -> d
  | None ->
      let d = Analyzer.Conflict.degree (conflicts t) name in
      Hashtbl.replace t.degrees name d;
      d

let find_pair t a b =
  let row =
    match Hashtbl.find t.verdicts a with
    | row -> row
    | exception Not_found ->
        let row = Hashtbl.create 16 in
        Hashtbl.replace t.verdicts a row;
        row
  in
  match Hashtbl.find row b with
  | v -> v
  | exception Not_found ->
      let v = Analyzer.Conflict.find_pair (conflicts t) a b in
      Hashtbl.replace row b v;
      v
