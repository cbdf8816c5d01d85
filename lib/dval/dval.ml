type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Str of string
  | List of t list
  | Record of (string * t) list

(* No floats, so physical equality implies structural equality: values
   shared between the primary and the warm caches compare in O(1). *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int64.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys -> List.equal equal xs ys
  | Record xs, Record ys ->
      List.equal
        (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
        xs ys
  | (Unit | Bool _ | Int _ | Str _ | List _ | Record _), _ -> false

let compare = Stdlib.compare

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.fprintf fmt "%Ld" i
  | Str s -> Format.fprintf fmt "%S" s
  | List xs ->
      Format.fprintf fmt "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp)
        xs
  | Record fs ->
      let pp_field f (k, v) = Format.fprintf f "%s=%a" k pp v in
      Format.fprintf fmt "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
           pp_field)
        fs

let to_string v = Format.asprintf "%a" pp v

let field_opt v name =
  match v with Record fs -> List.assoc_opt name fs | _ -> None

let field v name =
  match field_opt v name with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf "Dval.field: no field %S in %s" name (to_string v))

let set_field v name x =
  match v with
  | Record fs ->
      if List.mem_assoc name fs then
        Record (List.map (fun (k, w) -> if k = name then (k, x) else (k, w)) fs)
      else Record (fs @ [ (name, x) ])
  | _ -> invalid_arg "Dval.set_field: not a record"

let int i = Int (Int64.of_int i)

let to_int = function
  | Int i -> i
  | v -> invalid_arg ("Dval.to_int: " ^ to_string v)

let to_int_exn v = Int64.to_int (to_int v)

let to_str = function
  | Str s -> s
  | v -> invalid_arg ("Dval.to_str: " ^ to_string v)

let to_list = function
  | List xs -> xs
  | v -> invalid_arg ("Dval.to_list: " ^ to_string v)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []
