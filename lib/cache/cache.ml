type entry = { value : Dval.t; version : int }

type t = {
  items : (string, entry) Hashtbl.t;
  latency : float;
  mutable hits : int;
  mutable misses : int;
}

(* A new table never has fewer buckets than this: room for the keys a
   run adds on misses without growing the table. Below it, the caches'
   share of the heap, and with it the major GC's timing, does not
   depend on the seed's size; radbench's leased-catalog peak-heap
   reading is sensitive to that timing (EXPERIMENTS.md, "Small seeds
   keep 1,024-bucket tables"). *)
let min_buckets = 1024

(* Entries are immutable, so a copy shares them. [Hashtbl.copy]
   duplicates the buckets and re-hashes nothing, but it visits every
   bucket: a table holding fewer entries than a new one has buckets is
   cheaper to rebuild. *)
let copy t =
  let items =
    if Hashtbl.length t.items >= min_buckets then Hashtbl.copy t.items
    else begin
      let items = Hashtbl.create min_buckets in
      Hashtbl.iter (Hashtbl.add items) t.items;
      items
    end
  in
  { t with items }

let find t key =
  let r = Hashtbl.find_opt t.items key in
  if Option.is_some r then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  r

let get t key =
  Sim.Engine.sleep t.latency;
  find t key

let version_of t key =
  match Hashtbl.find_opt t.items key with
  | Some { version; _ } -> version
  | None -> -1

let peek t key = Hashtbl.find_opt t.items key

let update t key value ~version =
  match Hashtbl.find_opt t.items key with
  | Some existing when existing.version >= version -> ()
  | Some _ | None -> Hashtbl.replace t.items key { value; version }

(* Version-guarded eviction for invalidation-mode propagation: only an
   entry strictly older than the invalidating write is dropped, so a
   reordered stale invalidation cannot evict data that is already as
   fresh as (or fresher than) the write it announces. *)
let invalidate t key ~version =
  match Hashtbl.find_opt t.items key with
  | Some existing when existing.version < version ->
      Hashtbl.remove t.items key;
      true
  | Some _ | None -> false

let wipe t = Hashtbl.reset t.items

let size t = Hashtbl.length t.items

let hits t = t.hits

let misses t = t.misses

let snapshot t =
  Hashtbl.fold (fun k { value; version } acc -> (k, value, version) :: acc) t.items []

let restore t entries =
  List.iter (fun (k, value, version) -> update t k value ~version) entries

(* Sized for [entries] up front: growing a table re-links every entry
   already in it. *)
let of_list ?(access_latency = 0.5) entries =
  let t =
    {
      items = Hashtbl.create (max min_buckets (List.length entries));
      latency = access_latency;
      hits = 0;
      misses = 0;
    }
  in
  restore t entries;
  t

let create ?access_latency () = of_list ?access_latency []

module Leases = Leases
