exception Error of string

type host = {
  read : string -> Dval.t;
  write : string -> Dval.t -> unit;
  compute : float -> unit;
  declare : Ast.decl -> string -> unit;
  time_now : unit -> int64;
  random_int : int -> int64;
  external_call : string -> Dval.t -> Dval.t;
}

let host ?(read = fun _ -> Dval.Unit) ?(write = fun _ _ -> ())
    ?(compute = fun _ -> ()) ?(declare = fun _ _ -> ())
    ?(time_now = fun () -> raise (Error "time_now: nondeterministic source"))
    ?(random_int = fun _ -> raise (Error "random_int: nondeterministic source"))
    ?(external_call =
      fun svc _ -> raise (Error ("no external service bound: " ^ svc)))
    () =
  { read; write; compute; declare; time_now; random_int; external_call }

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let truthy = function
  | Dval.Bool b -> b
  | Dval.Int i -> i <> 0L
  | Dval.Unit -> false
  | Dval.Str s -> s <> ""
  | Dval.List l -> l <> []
  | Dval.Record _ -> true

let as_int = function
  | Dval.Int i -> i
  | v -> fail "expected an int, found %s" (Dval.to_string v)

let as_str = function
  | Dval.Str s -> s
  | v -> fail "expected a string, found %s" (Dval.to_string v)

let as_list = function
  | Dval.List l -> l
  | v -> fail "expected a list, found %s" (Dval.to_string v)

let arith op a b =
  let open Int64 in
  match (op : Ast.binop) with
  | Add -> Dval.Int (add a b)
  | Sub -> Dval.Int (sub a b)
  | Mul -> Dval.Int (mul a b)
  | Div -> if b = 0L then fail "division by zero" else Dval.Int (div a b)
  | Mod -> if b = 0L then fail "modulo by zero" else Dval.Int (rem a b)
  | Lt -> Dval.Bool (compare a b < 0)
  | Gt -> Dval.Bool (compare a b > 0)
  | Le -> Dval.Bool (compare a b <= 0)
  | Ge -> Dval.Bool (compare a b >= 0)
  | Eq | Ne | And | Or -> assert false

let rec eval_expr h env (e : Ast.expr) =
  match e with
  | Unit -> Dval.Unit
  | Bool b -> Dval.Bool b
  | Int i -> Dval.Int i
  | Str s -> Dval.Str s
  | Input x | Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> fail "unbound variable %s" x)
  | Let (x, v, b) ->
      let v = eval_expr h env v in
      eval_expr h ((x, v) :: env) b
  | Seq es ->
      List.fold_left (fun _ e -> eval_expr h env e) Dval.Unit es
  | If (c, t, e) ->
      if truthy (eval_expr h env c) then eval_expr h env t
      else eval_expr h env e
  | Binop (Eq, a, b) ->
      Dval.Bool (Dval.equal (eval_expr h env a) (eval_expr h env b))
  | Binop (Ne, a, b) ->
      Dval.Bool (not (Dval.equal (eval_expr h env a) (eval_expr h env b)))
  | Binop (And, a, b) ->
      Dval.Bool (truthy (eval_expr h env a) && truthy (eval_expr h env b))
  | Binop (Or, a, b) ->
      Dval.Bool (truthy (eval_expr h env a) || truthy (eval_expr h env b))
  | Binop (op, a, b) ->
      let a = as_int (eval_expr h env a) in
      let b = as_int (eval_expr h env b) in
      arith op a b
  | Not e -> Dval.Bool (not (truthy (eval_expr h env e)))
  | Str_of_int e -> Dval.Str (Int64.to_string (as_int (eval_expr h env e)))
  | Concat es ->
      Dval.Str (String.concat "" (List.map (fun e -> as_str (eval_expr h env e)) es))
  | List_lit es -> Dval.List (List.map (eval_expr h env) es)
  | Append (l, x) ->
      let l = as_list (eval_expr h env l) in
      let x = eval_expr h env x in
      Dval.List (l @ [ x ])
  | Prepend (l, x) ->
      let l = as_list (eval_expr h env l) in
      let x = eval_expr h env x in
      Dval.List (x :: l)
  | Concat_list (a, b) ->
      let a = as_list (eval_expr h env a) in
      let b = as_list (eval_expr h env b) in
      Dval.List (a @ b)
  | Take (l, n) ->
      let l = as_list (eval_expr h env l) in
      let n = Int64.to_int (as_int (eval_expr h env n)) in
      Dval.List (Dval.take n l)
  | Length l -> Dval.Int (Int64.of_int (List.length (as_list (eval_expr h env l))))
  | Nth (l, i) ->
      let l = as_list (eval_expr h env l) in
      let i = Int64.to_int (as_int (eval_expr h env i)) in
      if i < 0 || i >= List.length l then fail "index %d out of bounds" i
      else List.nth l i
  | Record_lit fs ->
      Dval.Record (List.map (fun (k, e) -> (k, eval_expr h env e)) fs)
  | Field (e, name) -> (
      match Dval.field_opt (eval_expr h env e) name with
      | Some v -> v
      | None -> fail "no field %s" name)
  | Set_field (e, name, v) -> (
      let r = eval_expr h env e in
      let v = eval_expr h env v in
      try Dval.set_field r name v with Invalid_argument m -> fail "%s" m)
  | Read k -> h.read (as_str (eval_expr h env k))
  | Write (k, v) ->
      let k = as_str (eval_expr h env k) in
      let v = eval_expr h env v in
      h.write k v;
      Dval.Unit
  | Foreach (x, l, body) ->
      let l = as_list (eval_expr h env l) in
      Dval.List (List.map (fun v -> eval_expr h ((x, v) :: env) body) l)
  | Compute (ms, e) ->
      h.compute ms;
      eval_expr h env e
  | Opaque e -> eval_expr h env e
  | Time_now -> Dval.Int (h.time_now ())
  | Random_int n -> Dval.Int (h.random_int n)
  | Declare (d, k) ->
      h.declare d (as_str (eval_expr h env k));
      Dval.Unit
  | External (svc, payload) -> h.external_call svc (eval_expr h env payload)

let eval h (f : Ast.func) args =
  if List.length args <> List.length f.params then
    fail "%s expects %d arguments, got %d" f.fn_name (List.length f.params)
      (List.length args);
  eval_expr h (List.combine f.params args) f.body
