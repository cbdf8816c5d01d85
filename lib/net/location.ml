type t = string

let va = "VA"
let ca = "CA"
let ie = "IE"
let de = "DE"
let jp = "JP"
let oh = "OH"
let oregon = "OR"

let user_locations = [ va; ca; ie; de; jp ]

let near_storage = va

(* Upper triangle of the symmetric RTT matrix (ms). The ↔VA entries are
   Table 2's values minus the 6 ms DynamoDB service time modelled by the
   storage layer, so that a storage ping reproduces Table 2. *)
let pairs =
  [
    ((va, ca), 68.0);
    ((va, ie), 64.0);
    ((va, de), 87.0);
    ((va, jp), 140.0);
    ((va, oh), 12.0);
    ((va, oregon), 65.0);
    ((ca, ie), 135.0);
    ((ca, de), 150.0);
    ((ca, jp), 105.0);
    ((ca, oh), 52.0);
    ((ca, oregon), 22.0);
    ((ie, de), 25.0);
    ((ie, jp), 210.0);
    ((ie, oh), 75.0);
    ((ie, oregon), 130.0);
    ((de, jp), 230.0);
    ((de, oh), 95.0);
    ((de, oregon), 150.0);
    ((jp, oh), 130.0);
    ((jp, oregon), 97.0);
    ((oh, oregon), 50.0);
  ]

(* [rtt] runs for every message, so the matrix is built once, indexed by
   each location's position in [all]; [nan] marks a pair [pairs] lacks. *)
let all = [| va; ca; ie; de; jp; oh; oregon |]

let rec index_from i l =
  if i = Array.length all then -1
  else if String.equal all.(i) l then i
  else index_from (i + 1) l

let index l = index_from 0 l

let matrix =
  let n = Array.length all in
  let m = Array.make_matrix n n Float.nan in
  Array.iteri (fun i _ -> m.(i).(i) <- 1.0) all;
  List.iter
    (fun ((a, b), v) ->
      m.(index a).(index b) <- v;
      m.(index b).(index a) <- v)
    pairs;
  m

let rtt a b =
  let i = index a and j = index b in
  if i < 0 || j < 0 then
    invalid_arg (Printf.sprintf "Location.rtt: unknown location %s/%s" a b);
  let v = matrix.(i).(j) in
  if Float.is_nan v then invalid_arg "Location.rtt: missing pair" else v

let pp fmt t = Format.pp_print_string fmt t
