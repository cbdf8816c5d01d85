type op = {
  op_id : string;
  start : float;
  finish : float;
  reads : (string * Dval.t) list;
  writes : (string * Dval.t) list;
}

module Smap = Map.Make (String)

let read_state state k =
  match Smap.find_opt k state with Some v -> v | None -> Dval.Unit

let applicable state op =
  List.for_all (fun (k, v) -> Dval.equal (read_state state k) v) op.reads

let apply state op =
  List.fold_left (fun st (k, v) -> Smap.add k v st) state op.writes

type verdict = Linearizable of string list | Not_linearizable | Inconclusive

exception Out_of_budget

(* Depth-first search over linearization prefixes. A pending op is a
   candidate when no other pending op finished before it started. *)
let decide ?(init = []) ?(budget = max_int) ops =
  let init_state =
    List.fold_left (fun st (k, v) -> Smap.add k v st) Smap.empty init
  in
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let taken = Array.make n false in
  let nodes = ref 0 in
  let rec search state acc remaining =
    incr nodes;
    if !nodes > budget then raise Out_of_budget;
    if remaining = 0 then Some (List.rev acc)
    else begin
      let minimal i =
        (not taken.(i))
        &&
        let ok = ref true in
        for j = 0 to n - 1 do
          if (not taken.(j)) && j <> i && ops.(j).finish < ops.(i).start then
            ok := false
        done;
        !ok
      in
      let rec try_from i =
        if i >= n then None
        else if taken.(i) || not (minimal i) then try_from (i + 1)
        else if not (applicable state ops.(i)) then try_from (i + 1)
        else begin
          taken.(i) <- true;
          match
            search (apply state ops.(i)) (ops.(i).op_id :: acc) (remaining - 1)
          with
          | Some _ as r -> r
          | None ->
              taken.(i) <- false;
              try_from (i + 1)
        end
      in
      try_from 0
    end
  in
  match search init_state [] n with
  | Some order -> Linearizable order
  | None -> Not_linearizable
  | exception Out_of_budget -> Inconclusive

let witness ?init ops =
  match decide ?init ops with
  | Linearizable order -> Some order
  | Not_linearizable -> None
  | Inconclusive -> assert false (* unreachable: unbounded budget *)

let check ?init ops = witness ?init ops <> None
