type config = {
  locations : Net.Location.t list;
  server : Server.config;
  sharding : Shard.Directory.strategy;
  overlap : bool;
  ro_fast : bool;
  fu_window : float;
  fu_piggyback : bool;
  warm_caches : bool;
  cache_latency : float;
}

let default_config =
  {
    locations = Net.Location.user_locations;
    server = Server.default_config;
    sharding = Shard.Directory.Hash { shards = 1 };
    overlap = true;
    ro_fast = true;
    fu_window = 0.0;
    fu_piggyback = false;
    warm_caches = true;
    cache_latency = 6.0;
  }

type t = {
  cfg : config;
  net : Net.Transport.t;
  reg : Registry.t;
  kv : Store.Kv.t;
  extsvc : Extsvc.t;
  srvs : Server.t list; (* every shard, ascending *)
  dir : Shard.Directory.t;
  sites : (Net.Location.t * Runtime.t) list;
  mutable ops : Lincheck.op list; (* newest first *)
}

let create ?(config = default_config) ?schema ?(tracer = Metrics.Tracer.noop)
    ~net ~funcs ~data () =
  (match schema with
  | None -> ()
  | Some schema -> (
      match Fdsl.Typecheck.check_all ~schema funcs with
      | Ok () -> ()
      | Error (e :: _) ->
          invalid_arg
            (Format.asprintf "Framework.create: type error: %a"
               Fdsl.Typecheck.pp_error e)
      | Error [] -> ()));
  let reg = Registry.create () in
  List.iter
    (fun f ->
      match Registry.register reg f with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Framework.create: " ^ e))
    funcs;
  let kv = Store.Kv.create () in
  Store.Kv.load kv data;
  let extsvc = Extsvc.create () in
  if Metrics.Tracer.enabled tracer then Net.Transport.set_tracer net tracer;
  (* N independent LVI servers over the one shared primary store, each
     owning a partition of the key space per the directory, wired to
     each other for cross-shard prepare/commit; the paper's single
     server is the one-shard case. All shards live in the near-storage
     location (the transport dispatches services by value, so colocated
     same-name services are fine). *)
  let dir = Shard.Directory.create config.sharding in
  let srvs =
    List.init (Shard.Directory.shards dir) (fun shard ->
        Server.create ~extsvc ~tracer ~net ~registry:reg ~kv ~shard
          ~directory:dir config.server)
  in
  List.iter (fun s -> Server.connect_shards s srvs) srvs;
  let router = Shard.Router.create dir in
  (* One warm table, built from the primary's final record of each seed
     key (so a duplicated key warms to the value the primary kept);
     every site starts from its own copy of it. *)
  let warm =
    Cache.of_list ~access_latency:config.cache_latency
      (if config.warm_caches then
         List.filter_map
           (fun (k, _) ->
             Option.map
               (fun { Store.Kv.value; version } -> (k, value, version))
               (Store.Kv.peek kv k))
           data
       else [])
  in
  let sites =
    List.map
      (fun loc ->
        let rt =
          Runtime.create ~extsvc ~tracer ~net ~registry:reg
            ~cache:(Cache.copy warm) ~router ~servers:srvs
            {
              loc;
              overlap = config.overlap;
              ro_fast = config.ro_fast;
              fu_window = config.fu_window;
              fu_piggyback = config.fu_piggyback;
            }
        in
        (loc, rt))
      config.locations
  in
  (* Wire every site's cache into every shard's propagation channel —
     each shard publishes the committed records it owns — and its lease
     revocation service into every shard (each shard is the lease
     authority for the keys it owns). [subscribe] and
     [register_lease_site] are no-ops when their feature is off, so the
     seed configuration constructs exactly what it did before. *)
  List.iter
    (fun (_, rt) ->
      List.iter
        (fun s ->
          Server.subscribe s (Runtime.cache_update_service rt);
          Server.register_lease_site s (Runtime.lease_revoke_service rt))
        srvs)
    sites;
  { cfg = config; net; reg; kv; extsvc; srvs; dir; sites; ops = [] }

let locations t = List.map fst t.sites

let net t = t.net

let runtime t loc =
  match List.assoc_opt loc t.sites with
  | Some rt -> rt
  | None -> invalid_arg ("Framework.runtime: no site at " ^ loc)

let invoke t ~from fn args = Runtime.invoke (runtime t from) fn args

let server t = List.hd t.srvs

let servers t = t.srvs

let directory t = t.dir

let primary t = t.kv

let registry t = t.reg

let register_external t ~name ?latency handler =
  Extsvc.register t.extsvc ~name ?latency handler

let external_services t = t.extsvc

let record_history t =
  List.iter
    (fun (_, rt) -> Runtime.set_recorder rt (fun op -> t.ops <- op :: t.ops))
    t.sites

let history t = List.rev t.ops

let stop t = List.iter Server.stop t.srvs
