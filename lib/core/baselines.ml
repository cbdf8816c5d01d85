open Sim
module Transport = Net.Transport
module Location = Net.Location
module Kv = Store.Kv

type outcome = { value : (Dval.t, string) result; latency : float }

type kind =
  | Centralized of {
      net : Transport.t;
      svc : (string * Dval.t list, Proto.exec_result) Transport.service;
    }
  | Local of (Location.t * Kv.t) list
  | Remote of { kv : Kv.t; delay : Location.t -> float }
    (* app near the user, every storage operation pays [delay from] *)
  | Validate_per_read of Kv.t
    (* the §1 "late reads" strawman: execute near user against a local
       replica, but block on a validation round trip to VA at every read *)

type t = {
  kind : kind;
  reg : Registry.t;
  primary_kv : Kv.t;
}

let make_registry funcs =
  let reg = Registry.create () in
  List.iter
    (fun f ->
      match Registry.register reg f with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Baselines: " ^ e))
    funcs;
  reg

let find reg fn =
  match Registry.find reg fn with
  | Some e -> e
  | None -> invalid_arg ("Baselines.invoke: unknown function " ^ fn)

let centralized ~net ~funcs ~data () =
  let reg = make_registry funcs in
  let kv = Kv.create () in
  Kv.load kv data;
  let svc =
    Transport.serve net ~loc:Location.near_storage ~name:"baseline-app"
      (fun (fn, args) ->
        Engine.sleep Runtime.invoke_overhead;
        Execute.on_kv (find reg fn) ~kv args)
  in
  { kind = Centralized { net; svc }; reg; primary_kv = kv }

let local ~locations ~funcs ~data () =
  let reg = make_registry funcs in
  let sites =
    List.map
      (fun loc ->
        let kv = Kv.create () in
        Kv.load kv data;
        (loc, kv))
      locations
  in
  let primary_kv =
    match List.assoc_opt Location.near_storage sites with
    | Some kv -> kv
    | None -> snd (List.hd sites)
  in
  { kind = Local sites; reg; primary_kv }

let remote ~delay ~funcs ~data =
  let reg = make_registry funcs in
  let kv = Kv.create () in
  Kv.load kv data;
  { kind = Remote { kv; delay }; reg; primary_kv = kv }

let validate_per_read ~funcs ~data () =
  let reg = make_registry funcs in
  let kv = Kv.create () in
  Kv.load kv data;
  { kind = Validate_per_read kv; reg; primary_kv = kv }

(* Strongly consistent geo-replicated storage: each operation reaches
   the nearest replica and then coordinates across the replica set. The
   PRAM bound (§2) makes the coordination term at least the largest
   inter-replica distance; we charge exactly that. *)
let geo_replicated ~replicas ~funcs ~data () =
  let geo_op_delay from =
    let nearest =
      List.fold_left
        (fun acc r -> Float.min acc (Location.rtt from r))
        Float.infinity replicas
    in
    let coordination =
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc b -> Float.max acc (Location.rtt a b))
            acc replicas)
        0.0 replicas
    in
    nearest +. coordination
  in
  remote ~delay:geo_op_delay ~funcs ~data

(* §2: the application moved near the user but the data stayed in VA —
   every storage operation pays the full user↔VA RTT. *)
let naive_edge ~funcs ~data () =
  remote ~funcs ~data ~delay:(fun from ->
      Location.rtt from Location.near_storage)

let invoke t ~from fn args =
  let start = Engine.now () in
  let result =
    match t.kind with
    | Centralized { net; svc } -> Transport.call net ~from svc (fn, args)
    | Local sites ->
        let kv =
          match List.assoc_opt from sites with
          | Some kv -> kv
          | None -> invalid_arg ("Baselines.invoke: no local site at " ^ from)
        in
        Engine.sleep Runtime.invoke_overhead;
        Execute.on_kv (find t.reg fn) ~kv args
    | Remote { kv; delay } ->
        Engine.sleep Runtime.invoke_overhead;
        let delay = delay from in
        Execute.run (find t.reg fn)
          ~read:(fun k ->
            Engine.sleep delay;
            match Kv.get kv k with
            | Some { value; _ } -> Some value
            | None -> None)
          ~write:(fun k v ->
            Engine.sleep delay;
            ignore (Kv.put kv k v))
          args
    | Validate_per_read kv ->
        (* The late-reads strawman (§1): execution proceeds against a
           fast local copy, but each read must be validated against the
           primary as it happens — a blocking round trip that nothing
           overlaps. Writes also cross to VA. *)
        Engine.sleep Runtime.invoke_overhead;
        let rtt = Location.rtt from Location.near_storage in
        Execute.run (find t.reg fn)
          ~read:(fun k ->
            Engine.sleep 0.5 (* local cache read *);
            Engine.sleep rtt (* per-read validation *);
            match Kv.peek kv k with
            | Some { value; _ } -> Some value
            | None -> None)
          ~write:(fun k v ->
            Engine.sleep rtt;
            ignore (Kv.put kv k v))
          args
  in
  { value = result.value; latency = Engine.now () -. start }

let primary t = t.primary_kv
