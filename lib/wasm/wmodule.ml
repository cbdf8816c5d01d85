type func = {
  fn_name : string;
  n_params : int;
  n_locals : int;
  body : Instr.t list;
}

type t = { funcs : func array; imports : string list }

let create ~funcs ~imports = { funcs = Array.of_list funcs; imports }

let find t name =
  let n = Array.length t.funcs and i = ref 0 in
  while !i < n && not (String.equal t.funcs.(!i).fn_name name) do
    incr i
  done;
  if !i < n then Some !i else None

let func t i =
  if i < 0 || i >= Array.length t.funcs then
    invalid_arg (Printf.sprintf "Wmodule.func: index %d out of range" i);
  t.funcs.(i)
