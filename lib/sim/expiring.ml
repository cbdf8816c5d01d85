(* Deadlines wait in a FIFO of fixed-size chunks of parallel arrays: an
   unboxed float array of deadlines beside the keys and values they
   were set for. A deadline costs three array slots; only one in
   [chunk_size] allocates, a fresh chunk. The key and value slots are
   [Obj.t] arrays made from an immediate, so they are never flat float
   arrays whatever the key and value types, and a slot that [prune]
   vacates gets that immediate back: it pins nothing. Only [expire]
   fills a slot, with the table's ['k] and ['v], so [prune] reads them
   back at those types. *)

let chunk_size = 512

let vacant = Obj.repr 0

type chunk = {
  ats : Float.Array.t;
  keys : Obj.t array;
  vals : Obj.t array;
  mutable next : chunk option;
}

type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  mutable head : chunk; (* holds the oldest pending deadline *)
  mutable first : int; (* its slot in [head] *)
  mutable tail : chunk; (* being filled *)
  mutable fill : int; (* slots used in [tail] *)
  mutable last : float;
}

let new_chunk size =
  {
    ats = Float.Array.create size;
    keys = Array.make size vacant;
    vals = Array.make size vacant;
    next = None;
  }

(* A table starts on an empty chunk, so one that is never given a
   deadline allocates no slots. *)
let create n =
  let c = new_chunk 0 in
  {
    table = Hashtbl.create n;
    head = c;
    first = 0;
    tail = c;
    fill = 0;
    last = neg_infinity;
  }

let find_opt t k = Hashtbl.find_opt t.table k

let mem t k = Hashtbl.mem t.table k

let replace t k v = Hashtbl.replace t.table k v

let remove t k = Hashtbl.remove t.table k

let length t = Hashtbl.length t.table

let fold f t acc = Hashtbl.fold f t.table acc

let expire t k v ~at =
  (* Raising an out-of-order deadline to the latest keeps the FIFO
     sorted; the binding then only lives longer, never shorter. *)
  let at = Float.max at t.last in
  t.last <- at;
  if t.fill = Array.length t.tail.keys then begin
    let c = new_chunk chunk_size in
    if t.fill = 0 then t.head <- c (* the empty chunk [create] starts on *)
    else t.tail.next <- Some c;
    t.tail <- c;
    t.fill <- 0
  end;
  let c = t.tail and i = t.fill in
  Float.Array.set c.ats i at;
  c.keys.(i) <- Obj.repr k;
  c.vals.(i) <- Obj.repr v;
  t.fill <- i + 1

(* Step past the oldest deadline. An emptied FIFO restarts at the top of
   its one chunk; a used-up head chunk that is not the tail is dropped. *)
let advance t =
  t.first <- t.first + 1;
  if t.head == t.tail then begin
    if t.first = t.fill then begin
      t.first <- 0;
      t.fill <- 0
    end
  end
  else if t.first = chunk_size then
    match t.head.next with
    | Some c ->
        t.head <- c;
        t.first <- 0
    | None -> assert false

let rec prune t ~now =
  let c = t.head and i = t.first in
  if (c != t.tail || i < t.fill) && now > Float.Array.get c.ats i then begin
    let k = Obj.obj c.keys.(i) and v = Obj.obj c.vals.(i) in
    c.keys.(i) <- vacant;
    c.vals.(i) <- vacant;
    advance t;
    (match Hashtbl.find t.table k with
    | v' when v' == v -> Hashtbl.remove t.table k
    | _ | (exception Not_found) -> ());
    prune t ~now
  end
