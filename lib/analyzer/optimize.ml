open Fdsl.Ast

(* Every rewrite below must preserve the access trace of the program on
   all inputs: same Read/Write/Declare keys, in a compatible order, with
   conditional accesses staying conditional. Value-level simplification
   is free; effect-level restructuring is limited to dropping provably
   pure code and merging branches whose access multisets are
   syntactically identical. *)

(* ------------------------------------------------------------------ *)
(* Literals                                                           *)
(* ------------------------------------------------------------------ *)

let lit_dval = function
  | Unit -> Some Dval.Unit
  | Bool b -> Some (Dval.Bool b)
  | Int i -> Some (Dval.Int i)
  | Str s -> Some (Dval.Str s)
  | _ -> None

let is_lit e = lit_dval e <> None

let truthy = function
  | Dval.Unit -> false
  | Dval.Bool b -> b
  | Dval.Int i -> not (Int64.equal i 0L)
  | Dval.Str s -> s <> ""
  | Dval.List l -> l <> []
  | Dval.Record _ -> true

(* ------------------------------------------------------------------ *)
(* Variables                                                          *)
(* ------------------------------------------------------------------ *)

(* Let-bound variables and parameters share one environment in Eval, so
   both Var and Input count as occurrences and both are shadowed by Let
   and Foreach binders. *)
let rec occurs x = function
  | Var y | Input y -> String.equal x y
  | Unit | Bool _ | Int _ | Str _ | Time_now | Random_int _ -> false
  | Let (y, v, b) -> occurs x v || ((not (String.equal x y)) && occurs x b)
  | Foreach (y, l, b) ->
      occurs x l || ((not (String.equal x y)) && occurs x b)
  | Seq es | Concat es | List_lit es -> List.exists (occurs x) es
  | If (a, b, c) -> occurs x a || occurs x b || occurs x c
  | Binop (_, a, b)
  | Append (a, b)
  | Prepend (a, b)
  | Concat_list (a, b)
  | Take (a, b)
  | Nth (a, b)
  | Write (a, b)
  | Set_field (a, _, b) ->
      occurs x a || occurs x b
  | Not e
  | Str_of_int e
  | Length e
  | Field (e, _)
  | Read e
  | Compute (_, e)
  | Opaque e
  | Declare (_, e)
  | External (_, e) ->
      occurs x e
  | Record_lit fs -> List.exists (fun (_, e) -> occurs x e) fs

(* Substitute a closed value for a variable. [v] has no free variables,
   so no capture is possible; only shadowing must be respected. *)
let rec subst x v = function
  | (Var y | Input y) when String.equal x y -> v
  | (Unit | Bool _ | Int _ | Str _ | Var _ | Input _ | Time_now | Random_int _)
    as e ->
      e
  | Let (y, w, b) ->
      Let (y, subst x v w, if String.equal x y then b else subst x v b)
  | Foreach (y, l, b) ->
      Foreach (y, subst x v l, if String.equal x y then b else subst x v b)
  | Seq es -> Seq (List.map (subst x v) es)
  | Concat es -> Concat (List.map (subst x v) es)
  | List_lit es -> List_lit (List.map (subst x v) es)
  | If (a, b, c) -> If (subst x v a, subst x v b, subst x v c)
  | Binop (op, a, b) -> Binop (op, subst x v a, subst x v b)
  | Append (a, b) -> Append (subst x v a, subst x v b)
  | Prepend (a, b) -> Prepend (subst x v a, subst x v b)
  | Concat_list (a, b) -> Concat_list (subst x v a, subst x v b)
  | Take (a, b) -> Take (subst x v a, subst x v b)
  | Nth (a, b) -> Nth (subst x v a, subst x v b)
  | Write (a, b) -> Write (subst x v a, subst x v b)
  | Set_field (a, n, b) -> Set_field (subst x v a, n, subst x v b)
  | Not e -> Not (subst x v e)
  | Str_of_int e -> Str_of_int (subst x v e)
  | Length e -> Length (subst x v e)
  | Field (e, n) -> Field (subst x v e, n)
  | Read e -> Read (subst x v e)
  | Compute (ms, e) -> Compute (ms, subst x v e)
  | Opaque e -> Opaque (subst x v e)
  | Declare (d, e) -> Declare (d, subst x v e)
  | External (s, e) -> External (s, subst x v e)
  | Record_lit fs -> Record_lit (List.map (fun (n, e) -> (n, subst x v e)) fs)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                   *)
(* ------------------------------------------------------------------ *)

let fold_binop op a b =
  match (op, lit_dval a, lit_dval b) with
  (* And/Or short-circuit in Eval, so a constant-falsy (-truthy) left
     operand decides the result without evaluating the right one —
     folding away [b] drops no accesses the source would perform. A
     constant left that does NOT short-circuit only folds when [b] is
     itself a literal. *)
  | And, Some va, _ when not (truthy va) -> Some (Bool false)
  | And, Some _, Some vb -> Some (Bool (truthy vb))
  | Or, Some va, _ when truthy va -> Some (Bool true)
  | Or, Some _, Some vb -> Some (Bool (truthy vb))
  | _, Some va, Some vb -> (
      match (op, va, vb) with
      | Eq, _, _ -> Some (Bool (Dval.equal va vb))
      | Ne, _, _ -> Some (Bool (not (Dval.equal va vb)))
      | Add, Dval.Int x, Dval.Int y -> Some (Int (Int64.add x y))
      | Sub, Dval.Int x, Dval.Int y -> Some (Int (Int64.sub x y))
      | Mul, Dval.Int x, Dval.Int y -> Some (Int (Int64.mul x y))
      | Div, Dval.Int x, Dval.Int y when not (Int64.equal y 0L) ->
          Some (Int (Int64.div x y))
      | Mod, Dval.Int x, Dval.Int y when not (Int64.equal y 0L) ->
          Some (Int (Int64.rem x y))
      | Lt, Dval.Int x, Dval.Int y -> Some (Bool (Int64.compare x y < 0))
      | Gt, Dval.Int x, Dval.Int y -> Some (Bool (Int64.compare x y > 0))
      | Le, Dval.Int x, Dval.Int y -> Some (Bool (Int64.compare x y <= 0))
      | Ge, Dval.Int x, Dval.Int y -> Some (Bool (Int64.compare x y >= 0))
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Branch collapsing                                                  *)
(* ------------------------------------------------------------------ *)

(* An arm qualifies for collapsing when its only effects are Declares
   with effect-free keys: its access multiset is then a static set of
   (kind, key-expr) pairs, independent of evaluation order. *)
let rec collect_declares e acc =
  match e with
  | Declare (d, k) ->
      if contains_effects k then None else Some ((d, k) :: acc)
  | Seq es ->
      List.fold_left
        (fun acc e ->
          match acc with None -> None | Some acc -> collect_declares e acc)
        (Some acc) es
  | e -> if contains_effects e then None else Some acc

let arms_access_equal t e =
  match (collect_declares t [], collect_declares e []) with
  | Some dt, Some de ->
      List.sort Stdlib.compare dt = List.sort Stdlib.compare de
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The simplifier                                                     *)
(* ------------------------------------------------------------------ *)

(* [needed] = is this expression's value observed? When it is not, value
   wrappers unwrap to their (effectful) children and pure code drops —
   mirroring what [Derive.residualize] does, so residuals and sources
   are treated uniformly. Termination: every recursive call is on a
   strict subterm, on an already-simplified term at a strictly lower
   [needed] level, or on a substitution result with one fewer free
   variable. *)
let rec simp ~strip ~needed e =
  match e with
  | Unit | Bool _ | Int _ | Str _ | Input _ | Var _ | Time_now | Random_int _
    ->
      e
  | Read k -> Read (simp ~strip ~needed:true k)
  | Write (k, v) ->
      Write (simp ~strip ~needed:true k, simp ~strip ~needed:true v)
  | Declare (d, k) -> Declare (d, simp ~strip ~needed:true k)
  | External (svc, p) -> External (svc, simp ~strip ~needed:true p)
  | Opaque e1 ->
      (* An analysis barrier by design: never fold through it. *)
      Opaque (simp ~strip ~needed e1)
  | Compute (ms, e1) ->
      let e1' = simp ~strip ~needed:true e1 in
      if strip && is_lit e1' then e1' else Compute (ms, e1')
  | Seq es -> simp_seq ~strip ~needed es
  | Let (x, v, b) -> (
      let b' = simp ~strip ~needed b in
      if not (occurs x b') then simp_seq ~strip ~needed [ v; b' ]
      else
        let v' = simp ~strip ~needed:true v in
        match lit_dval v' with
        | Some _ -> simp ~strip ~needed (subst x v' b')
        | None -> Let (x, v', b'))
  | If (c, t, e1) -> (
      let c' = simp ~strip ~needed:true c in
      match lit_dval c' with
      | Some v ->
          (* Eval takes the same branch on every input; the untaken arm
             and its accesses never happen. *)
          simp ~strip ~needed (if truthy v then t else e1)
      | None ->
          let t' = simp ~strip ~needed t in
          let e' = simp ~strip ~needed e1 in
          if t' = e' then simp_seq ~strip ~needed [ c'; t' ]
          else if (not needed) && arms_access_equal t' e' then
            simp_seq ~strip ~needed [ c'; t' ]
          else If (c', t', e'))
  | Binop (op, a, b) -> (
      let a' = simp ~strip ~needed:true a in
      let b' = simp ~strip ~needed:true b in
      match fold_binop op a' b' with
      | Some e' -> e'
      | None ->
          (* And/Or evaluate their right operand conditionally; keep the
             node even when the value is dropped so conditional accesses
             stay conditional. Strict operators sequence. *)
          if needed || op = And || op = Or then Binop (op, a', b')
          else simp_seq ~strip ~needed [ a'; b' ])
  | Not e1 ->
      if needed then
        let e1' = simp ~strip ~needed:true e1 in
        match lit_dval e1' with
        | Some v -> Bool (not (truthy v))
        | None -> Not e1'
      else simp ~strip ~needed e1
  | Str_of_int e1 ->
      if needed then
        let e1' = simp ~strip ~needed:true e1 in
        match e1' with Int i -> Str (Int64.to_string i) | _ -> Str_of_int e1'
      else simp ~strip ~needed e1
  | Length e1 ->
      if needed then Length (simp ~strip ~needed:true e1)
      else simp ~strip ~needed e1
  | Field (e1, n) -> (
      if not needed then simp ~strip ~needed e1
      else
        match simp ~strip ~needed:true e1 with
        | Record_lit fs
          when List.mem_assoc n fs
               && List.for_all (fun (_, e) -> not (contains_effects e)) fs ->
            List.assoc n fs
        | e1' -> Field (e1', n))
  | Set_field (e1, n, v) ->
      if needed then
        Set_field (simp ~strip ~needed:true e1, n, simp ~strip ~needed:true v)
      else simp_seq ~strip ~needed [ e1; v ]
  | Concat es ->
      if needed then
        let es' = List.map (simp ~strip ~needed:true) es in
        let all_str =
          List.for_all (function Str _ -> true | _ -> false) es'
        in
        if all_str then
          Str
            (String.concat ""
               (List.map (function Str s -> s | _ -> assert false) es'))
        else Concat es'
      else simp_seq ~strip ~needed es
  | List_lit es ->
      if needed then List_lit (List.map (simp ~strip ~needed:true) es)
      else simp_seq ~strip ~needed es
  | Record_lit fs ->
      if needed then
        Record_lit (List.map (fun (n, e) -> (n, simp ~strip ~needed:true e)) fs)
      else simp_seq ~strip ~needed (List.map snd fs)
  | Append (a, b) -> simp_pair ~strip ~needed (fun a b -> Append (a, b)) a b
  | Prepend (a, b) -> simp_pair ~strip ~needed (fun a b -> Prepend (a, b)) a b
  | Concat_list (a, b) ->
      simp_pair ~strip ~needed (fun a b -> Concat_list (a, b)) a b
  | Take (a, b) -> simp_pair ~strip ~needed (fun a b -> Take (a, b)) a b
  | Nth (a, b) -> simp_pair ~strip ~needed (fun a b -> Nth (a, b)) a b
  | Foreach (x, l, b) ->
      Foreach (x, simp ~strip ~needed:true l, simp ~strip ~needed b)

and simp_pair ~strip ~needed mk a b =
  if needed then
    mk (simp ~strip ~needed:true a) (simp ~strip ~needed:true b)
  else simp_seq ~strip ~needed [ a; b ]

and simp_seq ~strip ~needed es =
  (* Simplify elements (only the last value can be observed), flatten
     nested Seqs, drop pure non-final elements, and drop a pure final
     element when the value is unobserved. *)
  let rec flatten = function
    | [] -> []
    | [ last ] -> (
        match simp ~strip ~needed last with Seq es -> es | e -> [ e ])
    | e :: rest -> (
        (match simp ~strip ~needed:false e with Seq es -> es | e -> [ e ])
        @ flatten rest)
  in
  let es' = flatten es in
  let rec prune = function
    | [] -> []
    | [ last ] ->
        if (not needed) && not (contains_effects last) then [] else [ last ]
    | e :: rest ->
        let rest' = prune rest in
        if contains_effects e then e :: rest'
        else if rest' = [] && needed then [ e ] (* keep the value *)
        else rest'
  in
  match prune es' with [] -> Unit | [ e ] -> e | es'' -> Seq es''

let simplify ?(strip_compute = false) ?(value_needed = true) e =
  simp ~strip:strip_compute ~needed:value_needed e

(* ------------------------------------------------------------------ *)
(* Read demotion                                                      *)
(* ------------------------------------------------------------------ *)

(* Demote [Read k] to [Declare (Decl_read, k)] when the read's value
   neither feeds a key/control decision (not in [influencing]) nor is
   structurally consumed ([needed] — a Declare evaluates to Unit, which
   would fault a value consumer). Traversal order and id assignment
   mirror [Derive.relevance]: ids are assigned left-to-right, each Read
   numbered after its key subtree. Demotion preserves structure and
   variable occurrences, so no id shifting is required. *)
let demote influencing body =
  let counter = ref 0 in
  let rec go needed e =
    match e with
    | Unit | Bool _ | Int _ | Str _ | Input _ | Var _ | Time_now
    | Random_int _ ->
        e
    | Read k ->
        let k' = go true k in
        let id = !counter in
        incr counter;
        if List.mem id influencing || needed then Read k'
        else Declare (Decl_read, k')
    | Write (k, v) ->
        let k' = go true k in
        Write (k', go false v)
    | Declare (d, k) -> Declare (d, go true k)
    | External (svc, p) -> External (svc, go true p)
    | Opaque e1 -> Opaque (go needed e1)
    | Compute (ms, e1) -> Compute (ms, go true e1)
    | Seq es ->
        let n = List.length es in
        Seq (List.mapi (fun i e -> go (if i = n - 1 then needed else false) e) es)
    | Let (x, v, b) ->
        let v' = go (occurs x b) v in
        Let (x, v', go needed b)
    | If (c, t, e1) ->
        let c' = go true c in
        let t' = go needed t in
        If (c', t', go needed e1)
    | Foreach (x, l, b) ->
        let l' = go true l in
        Foreach (x, l', go needed b)
    (* Value operators consume their children's values. *)
    | Binop (op, a, b) ->
        let a' = go true a in
        Binop (op, a', go true b)
    | Not e1 -> Not (go true e1)
    | Str_of_int e1 -> Str_of_int (go true e1)
    | Length e1 -> Length (go true e1)
    | Field (e1, n) -> Field (go true e1, n)
    | Set_field (a, n, b) ->
        let a' = go true a in
        Set_field (a', n, go true b)
    | Concat es -> Concat (List.map (go true) es)
    | List_lit es -> List_lit (List.map (go true) es)
    | Record_lit fs -> Record_lit (List.map (fun (n, e) -> (n, go true e)) fs)
    | Append (a, b) ->
        let a' = go true a in
        Append (a', go true b)
    | Prepend (a, b) ->
        let a' = go true a in
        Prepend (a', go true b)
    | Concat_list (a, b) ->
        let a' = go true a in
        Concat_list (a', go true b)
    | Take (a, b) ->
        let a' = go true a in
        Take (a', go true b)
    | Nth (a, b) ->
        let a' = go true a in
        Nth (a', go true b)
  in
  go false body

(* ------------------------------------------------------------------ *)
(* Reclassification                                                   *)
(* ------------------------------------------------------------------ *)

let rec count_read_nodes = function
  | Read k -> 1 + count_read_nodes k
  | Unit | Bool _ | Int _ | Str _ | Input _ | Var _ | Time_now | Random_int _
    ->
      0
  | Let (_, a, b)
  | Binop (_, a, b)
  | Append (a, b)
  | Prepend (a, b)
  | Concat_list (a, b)
  | Take (a, b)
  | Nth (a, b)
  | Write (a, b)
  | Set_field (a, _, b)
  | Foreach (_, a, b) ->
      count_read_nodes a + count_read_nodes b
  | Seq es | Concat es | List_lit es ->
      List.fold_left (fun acc e -> acc + count_read_nodes e) 0 es
  | If (a, b, c) -> count_read_nodes a + count_read_nodes b + count_read_nodes c
  | Not e | Str_of_int e | Length e | Field (e, _) | Compute (_, e) | Opaque e
  | Declare (_, e)
  | External (_, e) ->
      count_read_nodes e
  | Record_lit fs ->
      List.fold_left (fun acc (_, e) -> acc + count_read_nodes e) 0 fs

let rec has_compute = function
  | Compute _ -> true
  | Unit | Bool _ | Int _ | Str _ | Input _ | Var _ | Time_now | Random_int _
    ->
      false
  | Let (_, a, b)
  | Binop (_, a, b)
  | Append (a, b)
  | Prepend (a, b)
  | Concat_list (a, b)
  | Take (a, b)
  | Nth (a, b)
  | Write (a, b)
  | Set_field (a, _, b)
  | Foreach (_, a, b) ->
      has_compute a || has_compute b
  | Seq es | Concat es | List_lit es -> List.exists has_compute es
  | If (a, b, c) -> has_compute a || has_compute b || has_compute c
  | Not e | Str_of_int e | Length e | Field (e, _) | Read e | Opaque e
  | Declare (_, e)
  | External (_, e) ->
      has_compute e
  | Record_lit fs -> List.exists (fun (_, e) -> has_compute e) fs

let classify body : Derive.classification =
  if has_compute body then Expensive
  else
    match count_read_nodes body with 0 -> Static | n -> Dependent n

let rank : Derive.classification -> int = function
  | Static -> 0
  | Dependent _ -> 1
  | Expensive -> 2
  | Manual -> 3

let better (a : Derive.classification) (b : Derive.classification) =
  (* Is [a] strictly cheaper than [b]? *)
  match (a, b) with
  | Dependent n, Dependent m -> n < m
  | _ -> rank a < rank b

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let optimize (d : Derive.t) =
  match d.classification with
  | Manual -> d
  | _ ->
      let body = simp ~strip:true ~needed:false d.rw_func.body in
      let rel = Derive.relevance { d.rw_func with body } in
      let body = demote rel.rel_reads body in
      let body = simp ~strip:true ~needed:false body in
      let classification = classify body in
      if better d.classification classification then d
      else
        { d with rw_func = { d.rw_func with body }; classification }

let upgraded ~(before : Derive.t) ~(after : Derive.t) =
  better after.classification before.classification
