type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  deadlines : (float * 'k * 'v) Queue.t; (* non-decreasing deadlines *)
  mutable last : float;
}

let create n =
  { table = Hashtbl.create n; deadlines = Queue.create (); last = neg_infinity }

let find_opt t k = Hashtbl.find_opt t.table k

let mem t k = Hashtbl.mem t.table k

let replace t k v = Hashtbl.replace t.table k v

let remove t k = Hashtbl.remove t.table k

let length t = Hashtbl.length t.table

let fold f t acc = Hashtbl.fold f t.table acc

let expire t k v ~at =
  (* Raising an out-of-order deadline to the latest keeps the queue
     sorted; the binding then only lives longer, never shorter. *)
  let at = Float.max at t.last in
  t.last <- at;
  Queue.push (at, k, v) t.deadlines

let rec prune t ~now =
  match Queue.peek_opt t.deadlines with
  | Some (at, k, v) when now > at ->
      ignore (Queue.pop t.deadlines);
      (match Hashtbl.find_opt t.table k with
      | Some v' when v' == v -> Hashtbl.remove t.table k
      | Some _ | None -> ());
      prune t ~now
  | Some _ | None -> ()
