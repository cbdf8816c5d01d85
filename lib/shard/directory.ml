type strategy =
  | Hash of { shards : int }
  | Prefix of { shards : int; rules : (string * int) list; default : int }

type t = strategy

let validate = function
  | Hash { shards } ->
      if shards < 1 then invalid_arg "Directory: shards must be >= 1"
  | Prefix { shards; rules; default } ->
      if shards < 1 then invalid_arg "Directory: shards must be >= 1";
      if default < 0 || default >= shards then
        invalid_arg "Directory: default shard out of range";
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p, s) ->
          if s < 0 || s >= shards then
            invalid_arg (Printf.sprintf "Directory: rule %S -> %d out of range" p s);
          if Hashtbl.mem seen p then
            invalid_arg (Printf.sprintf "Directory: duplicate rule prefix %S" p);
          Hashtbl.add seen p ())
        rules

let create strat =
  validate strat;
  strat

let hash ~shards = create (Hash { shards })
let prefix ?(default = 0) ~shards rules = create (Prefix { shards; rules; default })
let strategy t = t
let shards t = match t with Hash { shards } | Prefix { shards; _ } -> shards

(* FNV-1a, 64-bit: deterministic across runs and OCaml versions (unlike
   [Hashtbl.hash], whose output is implementation-defined). Masked to
   OCaml's native positive int range — [Int64.max_int] would leave bit
   62 set on a 63-bit int and wrap negative. *)
let fnv64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  Int64.to_int (Int64.logand !h (Int64.of_int max_int))

let is_prefix ~prefix:p s =
  String.length p <= String.length s && String.sub s 0 (String.length p) = p

let shard_of_key t key =
  match t with
  | Hash { shards } -> fnv64 key mod shards
  | Prefix { rules; default; _ } ->
      let best = ref None in
      List.iter
        (fun (p, s) ->
          if is_prefix ~prefix:p key then
            match !best with
            | Some (bp, _) when String.length bp >= String.length p -> ()
            | _ -> best := Some (p, s))
        rules;
      (match !best with Some (_, s) -> s | None -> default)

(* Longest literal run at the front of the shape: every concrete key the
   shape produces starts with this string. *)
let leading_literal shape =
  let buf = Buffer.create 16 in
  let rec go = function
    | Analyzer.Absint.Lit s :: rest ->
        Buffer.add_string buf s;
        go rest
    | _ -> ()
  in
  go shape;
  Buffer.contents buf

let shard_of_shape t shape =
  if shards t = 1 then Some 0
  else
    match Analyzer.Absint.exact shape with
    | Some key -> Some (shard_of_key t key)
    | None -> (
        match t with
        | Hash _ -> None
        | Prefix { rules; default; _ } ->
            (* Keys range over lead ^ Σ*. The longest rule prefixing
               [lead] is the baseline owner (or [default]); any strictly
               longer rule that extends [lead] could become the longest
               match for some hole contents, so all of them must agree
               with the baseline for the placement to be pinned. *)
            let lead = leading_literal shape in
            let base = shard_of_key t lead in
            let agree = ref true in
            List.iter
              (fun (p, s) ->
                if
                  String.length p > String.length lead
                  && is_prefix ~prefix:lead p && s <> base
                then agree := false)
              rules;
            ignore default;
            if !agree then Some base else None)

let pp fmt t =
  match t with
  | Hash { shards } -> Format.fprintf fmt "hash(%d)" shards
  | Prefix { shards; rules; default } ->
      Format.fprintf fmt "prefix(%d; %s; default=%d)" shards
        (String.concat ", "
           (List.map (fun (p, s) -> Printf.sprintf "%S->%d" p s) rules))
        default
