type outcome = (Dval.t, string) result

type value = I64 of int64 | Ref of int

exception Trap of string

(* Branch to a block [depth] levels up; Ret carries a function's result. *)
exception Branch of int

exception Ret of value option

type state = {
  modul : Wmodule.t;
  host : Host.t;
  heap : Dval.t Sim.Vec.t;
  mutable fuel : int;
  mutable retired : int;
}

let last_retired = ref 0

let instructions_executed () = !last_retired

let alloc st v =
  Sim.Vec.push st.heap v;
  Ref (Sim.Vec.length st.heap - 1)

let deref st = function
  | Ref h -> Sim.Vec.get st.heap h
  | I64 _ -> raise (Trap "expected a reference, found an i64")

let as_i64 = function
  | I64 i -> i
  | Ref _ -> raise (Trap "expected an i64, found a reference")

let as_str st v =
  match deref st v with
  | Dval.Str s -> s
  | d -> raise (Trap ("expected a string, found " ^ Dval.to_string d))

let as_list st v =
  match deref st v with
  | Dval.List l -> l
  | d -> raise (Trap ("expected a list, found " ^ Dval.to_string d))

(* Shared, so a comparison pushes a result without allocating one. *)
let i64_true = I64 1L

let i64_false = I64 0L

let bool_i64 b = if b then i64_true else i64_false

let apply_binop op a b =
  let open Int64 in
  match (op : Instr.binop) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div_s -> if b = 0L then raise (Trap "division by zero") else div a b
  | Rem_s -> if b = 0L then raise (Trap "remainder by zero") else rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Eq -> if equal a b then 1L else 0L
  | Ne -> if equal a b then 0L else 1L
  | Lt_s -> if compare a b < 0 then 1L else 0L
  | Gt_s -> if compare a b > 0 then 1L else 0L
  | Le_s -> if compare a b <= 0 then 1L else 0L
  | Ge_s -> if compare a b >= 0 then 1L else 0L

(* Pure builtins plus the three injected imports. Stack effects are
   documented next to each name in {!Host.pure_imports}. *)
let host_call st name pop push =
  match name with
  | "dval.to_i64" -> (
      match deref st (pop ()) with
      | Dval.Int i -> push (I64 i)
      | Dval.Bool b -> push (bool_i64 b)
      | d -> raise (Trap ("dval.to_i64 on " ^ Dval.to_string d)))
  | "dval.of_i64" -> push (alloc st (Dval.Int (as_i64 (pop ()))))
  | "dval.of_bool" ->
      push (alloc st (Dval.Bool (not (Int64.equal (as_i64 (pop ())) 0L))))
  | "dval.truthy" -> (
      match deref st (pop ()) with
      | Dval.Bool b -> push (bool_i64 b)
      | Dval.Int i -> push (bool_i64 (i <> 0L))
      | Dval.Unit -> push (bool_i64 false)
      | Dval.Str s -> push (bool_i64 (s <> ""))
      | Dval.List l -> push (bool_i64 (l <> []))
      | Dval.Record _ -> push (bool_i64 true))
  | "dval.eq" ->
      let b = deref st (pop ()) in
      let a = deref st (pop ()) in
      push (bool_i64 (Dval.equal a b))
  | "str.concat" ->
      let b = as_str st (pop ()) in
      let a = as_str st (pop ()) in
      push (alloc st (Dval.Str (a ^ b)))
  | "str.of_i64" -> push (alloc st (Dval.Str (Int64.to_string (as_i64 (pop ())))))
  | "str.eq" ->
      let b = as_str st (pop ()) in
      let a = as_str st (pop ()) in
      push (bool_i64 (String.equal a b))
  | "list.empty" -> push (alloc st (Dval.List []))
  | "list.append" ->
      let x = deref st (pop ()) in
      let l = as_list st (pop ()) in
      push (alloc st (Dval.List (l @ [ x ])))
  | "list.prepend" ->
      let x = deref st (pop ()) in
      let l = as_list st (pop ()) in
      push (alloc st (Dval.List (x :: l)))
  | "list.len" -> push (I64 (Int64.of_int (List.length (as_list st (pop ())))))
  | "list.get" ->
      let i = Int64.to_int (as_i64 (pop ())) in
      let l = as_list st (pop ()) in
      if i < 0 || i >= List.length l then
        raise (Trap (Printf.sprintf "list.get index %d out of bounds" i))
      else push (alloc st (List.nth l i))
  | "list.take" ->
      let n = Int64.to_int (as_i64 (pop ())) in
      let l = as_list st (pop ()) in
      push (alloc st (Dval.List (Dval.take n l)))
  | "list.concat" ->
      let b = as_list st (pop ()) in
      let a = as_list st (pop ()) in
      push (alloc st (Dval.List (a @ b)))
  | "record.new" -> push (alloc st (Dval.Record []))
  | "record.set" ->
      let v = deref st (pop ()) in
      let name = as_str st (pop ()) in
      let r = deref st (pop ()) in
      push (alloc st (Dval.set_field r name v))
  | "record.get" ->
      let name = as_str st (pop ()) in
      let r = deref st (pop ()) in
      push (alloc st (Dval.field r name))
  | "unit" -> push (alloc st Dval.Unit)
  | "storage.read" -> push (alloc st (st.host.read (as_str st (pop ()))))
  | "storage.write" ->
      let v = deref st (pop ()) in
      let key = as_str st (pop ()) in
      st.host.write key v;
      push (alloc st Dval.Unit)
  | "external.call" ->
      let payload = deref st (pop ()) in
      let svc = as_str st (pop ()) in
      push (alloc st (st.host.external_call svc payload))
  | "cpu.burn" ->
      let micros = as_i64 (pop ()) in
      st.host.compute (Int64.to_float micros /. 1000.0);
      push (alloc st Dval.Unit)
  | name when List.mem name Host.forbidden_imports ->
      raise (Trap ("nondeterministic import invoked at runtime: " ^ name))
  | name -> raise (Trap ("unknown host function: " ^ name))

let rec call st idx (args : value list) : value option =
  let f = Wmodule.func st.modul idx in
  if List.length args <> f.n_params then
    raise
      (Trap
         (Printf.sprintf "%s expects %d arguments, got %d" f.fn_name f.n_params
            (List.length args)));
  let locals = Array.make (f.n_params + f.n_locals) (I64 0L) in
  List.iteri (fun i v -> locals.(i) <- v) args;
  let stack = ref [] in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> raise (Trap "operand stack underflow")
  in
  let rec exec (instr : Instr.t) =
    st.fuel <- st.fuel - 1;
    st.retired <- st.retired + 1;
    if st.fuel <= 0 then raise (Trap "fuel exhausted");
    match instr with
    | I64_const i -> push (I64 i)
    | I64_binop op ->
        let b = as_i64 (pop ()) in
        let a = as_i64 (pop ()) in
        push (I64 (apply_binop op a b))
    | I64_eqz -> push (bool_i64 (Int64.equal (as_i64 (pop ())) 0L))
    | Ref_const d -> push (alloc st d)
    | Local_get i -> push locals.(i)
    | Local_set i -> locals.(i) <- pop ()
    | Local_tee i -> (
        match !stack with
        | v :: _ -> locals.(i) <- v
        | [] -> raise (Trap "operand stack underflow"))
    | Drop -> ignore (pop ())
    | Block body -> (
        try List.iter exec body with
        | Branch 0 -> () (* fallthrough past the block *)
        | Branch n -> raise (Branch (n - 1)))
    | Loop body ->
        let rec again () =
          match List.iter exec body with
          | () -> ()
          | exception Branch 0 -> again ()
          | exception Branch n -> raise (Branch (n - 1))
        in
        again ()
    | If (then_, else_) -> (
        let cond = as_i64 (pop ()) in
        let body = if Int64.equal cond 0L then else_ else then_ in
        try List.iter exec body with
        | Branch 0 -> ()
        | Branch n -> raise (Branch (n - 1)))
    | Br n -> raise (Branch n)
    | Br_if n -> if not (Int64.equal (as_i64 (pop ())) 0L) then exec (Br n)
    | Return -> raise (Ret (match !stack with v :: _ -> Some v | [] -> None))
    | Call callee ->
        let f' = Wmodule.func st.modul callee in
        let args =
          List.rev (List.init f'.n_params (fun _ -> pop ()))
        in
        (match call st callee args with
        | Some v -> push v
        | None -> raise (Trap (f'.fn_name ^ " returned no value")))
    | Call_host name -> host_call st name pop push
    | Nop -> ()
    | Unreachable -> raise (Trap "unreachable executed")
  in
  match List.iter exec f.body with
  | () -> ( match !stack with v :: _ -> Some v | [] -> None)
  | exception Ret v -> v
  | exception Branch _ -> raise (Trap "branch depth escaped function body")

let run modul ~host ?(fuel = 10_000_000) ~entry args =
  match Wmodule.find modul entry with
  | None -> Error (Printf.sprintf "no function named %S" entry)
  | Some idx -> (
      let st = { modul; host; heap = Sim.Vec.create (); fuel; retired = 0 } in
      let finish result =
        last_retired := st.retired;
        result
      in
      try
        let args = List.map (fun d -> alloc st d) args in
        match call st idx args with
        | Some (I64 i) -> finish (Ok (Dval.Int i))
        | Some (Ref h) -> finish (Ok (Sim.Vec.get st.heap h))
        | None -> finish (Error "function returned no value")
      with
      | Trap reason -> finish (Error ("trap: " ^ reason))
      | Invalid_argument reason -> finish (Error ("trap: " ^ reason)))
