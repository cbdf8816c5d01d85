type versioned = { value : Dval.t; version : int }

type t = {
  items : (string, versioned) Hashtbl.t;
  latency : float;
  mutable reads : int;
  mutable writes : int;
}

let create ?(access_latency = 6.0) () =
  { items = Hashtbl.create 1024; latency = access_latency; reads = 0; writes = 0 }

let access_latency t = t.latency

let pay t = Sim.Engine.sleep t.latency

let peek t key = Hashtbl.find_opt t.items key

let get t key =
  pay t;
  t.reads <- t.reads + 1;
  peek t key

let get_many t keys =
  pay t;
  t.reads <- t.reads + List.length keys;
  List.map (fun k -> (k, peek t k)) keys

let bump t key value =
  let version =
    match Hashtbl.find_opt t.items key with
    | Some { version; _ } -> version + 1
    | None -> 1
  in
  Hashtbl.replace t.items key { value; version };
  version

let put t key value =
  pay t;
  t.writes <- t.writes + 1;
  bump t key value

let put_many t kvs =
  pay t;
  t.writes <- t.writes + List.length kvs;
  List.map (fun (k, v) -> (k, bump t k v)) kvs


let version_peek t key =
  match Hashtbl.find_opt t.items key with
  | Some { version; _ } -> version
  | None -> 0

let version_of t key =
  pay t;
  t.reads <- t.reads + 1;
  version_peek t key

let versions_of t keys =
  pay t;
  t.reads <- t.reads + List.length keys;
  List.map (fun k -> (k, version_peek t k)) keys

let load t kvs = List.iter (fun (k, v) -> ignore (bump t k v)) kvs

let size t = Hashtbl.length t.items

let reads t = t.reads

let writes t = t.writes
