open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime

type call = string * Dval.t list

type requests =
  | Open of { rate : float; duration : float; draw : Rng.t -> call }
  | Closed of {
      clients_per_loc : int;
      requests_per_client : int;
      think_time : float;
      drain : float;
      draw : Rng.t -> clients:int -> client:int -> iter:int -> call;
    }

type 'k row = {
  key : 'k;
  load : Runner.load;
  outcomes : (string * Runtime.outcome) list;
  counts : (string * int) list;
  dists : (string * Stats.t) list;
}

type 'k table = {
  heading : string;
  keys : 'k list;
  bench : 'k row -> string;
  series : (string * ('k row -> float)) list;
  notes : 'k row list -> unit;
}

type 'k t = {
  title : string;
  intro : string;
  funcs : Fdsl.Ast.func list;
  seed_data : (string * Dval.t) list;
  config : 'k -> Framework.config;
  requests : 'k -> requests;
  traced : 'k -> bool;
  tables : 'k table list;
  columns : (string * ('k row -> string)) list;
  verdict : 'k row list -> Runner.measurement list;
}

(* --- counters --------------------------------------------------------- *)

let server_counts (s : Server.stats) =
  [
    ("prop_records", s.prop_records); ("prop_batches", s.prop_batches);
    ("cross_requests", s.cross_requests); ("cross_aborts", s.cross_aborts);
    ("shard_prepares", s.shard_prepares); ("lease_grants", s.lease_grants);
    ("lease_revokes", s.lease_revokes);
    ("lease_expiry_waits", s.lease_expiry_waits);
    ("lease_blocked_writes", s.lease_blocked_writes);
  ]

let runtime_counts (s : Runtime.stats) =
  [
    ("invocations", s.invocations); ("speculative", s.speculative);
    ("prop_installed", s.prop_installed);
  ]

let counters fw tracer =
  let named prefix = List.map (fun (name, n) -> (prefix ^ name, n)) in
  let copies prefix =
    List.map (fun (label, st) ->
        (prefix ^ label, Stats.merge st (Stats.create ())))
  in
  ( List.concat_map
      (fun s -> named "server." (server_counts (Server.stats s)))
      (Framework.servers fw)
    @ List.concat_map
        (fun loc ->
          named "runtime."
            (runtime_counts (Runtime.stats (Framework.runtime fw loc))))
        (Framework.locations fw)
    @ List.concat_map
        (fun (shard, (requests, cross)) ->
          [
            (Printf.sprintf "shard.%d.requests" shard, requests);
            (Printf.sprintf "shard.%d.cross" shard, cross);
          ])
        (Tracer.shard_stats tracer)
    @ List.map
        (fun ((_, phase, _), st) -> ("phase." ^ phase, Stats.count st))
        (Tracer.phase_stats tracer),
    copies "batch." (Tracer.batch_stats tracer)
    @ copies "queue." (Tracer.queue_stats tracer) )

(* --- one cell --------------------------------------------------------- *)

let latencies outcomes =
  Stats.of_list
    (List.map (fun (_, (o : Runtime.outcome)) -> o.latency) outcomes)

let run_cell sweep key =
  let tracer = if sweep.traced key then Tracer.create () else Tracer.noop in
  Runner.simulate ~seed:42 ~jitter:0.05 ~tracer
    ~locations:Net.Location.user_locations
    (Runner.Radical_with (sweep.config key))
    ~funcs:sweep.funcs ~schema:[]
    ~data:(fun _ -> sweep.seed_data)
    (fun d rng ->
      let fw = Runner.framework d in
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let outcomes = ref [] in
      let invoke i (fn, args) =
        let from = List.nth sites (i mod n_sites) in
        let o = Framework.invoke fw ~from fn args in
        outcomes := (fn, o) :: !outcomes;
        o
      in
      let load =
        match sweep.requests key with
        | Open { rate; duration; draw } ->
            let wrng = Rng.split rng in
            Runner.open_loop fw ~rate ~duration ~rng:(Rng.split rng)
              (fun ~arrival -> invoke arrival (draw wrng))
        | Closed
            { clients_per_loc; requests_per_client; think_time; drain; draw }
          ->
            let clients = n_sites * clients_per_loc in
            let next = draw rng ~clients in
            Workload.Driver.run_clients ~n:clients
              ~iterations:requests_per_client ~think_time (fun ~client ~iter ->
                ignore (invoke client (next ~client ~iter)));
            Engine.sleep drain;
            let lat = latencies !outcomes in
            {
              Runner.offered = nan;
              achieved = nan;
              median = Stats.median lat;
              p99 = Stats.p99 lat;
              requests = List.length !outcomes;
              errors =
                List.length
                  (List.filter
                     (fun (_, (o : Runtime.outcome)) -> Result.is_error o.value)
                     !outcomes);
            }
      in
      let counts, dists = counters fw tracer in
      { key; load; outcomes = !outcomes; counts; dists })

(* --- the sweep -------------------------------------------------------- *)

let run sweep =
  Runner.heading sweep.title;
  print_string sweep.intro;
  let rows = ref [] in
  let row key =
    match List.find_opt (fun r -> r.key = key) !rows with
    | Some r -> r
    | None ->
        let r = run_cell sweep key in
        rows := !rows @ [ r ];
        r
  in
  let measurements =
    List.concat_map
      (fun table ->
        print_string table.heading;
        let cells = List.map row table.keys in
        Table.print
          ~header:(List.map fst sweep.columns)
          ~rows:
            (List.map
               (fun r -> List.map (fun (_, cell) -> cell r) sweep.columns)
               cells);
        table.notes cells;
        List.concat_map
          (fun r ->
            List.map
              (fun (name, value) -> (table.bench r ^ "." ^ name, value r))
              table.series)
          cells)
      sweep.tables
  in
  measurements @ sweep.verdict !rows

(* --- reading rows ----------------------------------------------------- *)

let find rows key = List.find (fun r -> r.key = key) rows

let count row name =
  List.fold_left
    (fun sum (n, v) -> if n = name then sum + v else sum)
    0 row.counts

let dist row name = List.assoc_opt name row.dists

let on_path path row =
  List.length
    (List.filter (fun (_, (o : Runtime.outcome)) -> o.path = path) row.outcomes)

let counted header name = (header, fun row -> string_of_int (count row name))

let load_columns =
  [
    ("offered", fun r -> Runner.rate_label r.load.offered);
    ("achieved", fun r -> Printf.sprintf "%.0f/s" r.load.achieved);
    ("median", fun r -> Table.ms r.load.median);
    ("p99", fun r -> Table.ms r.load.p99);
    ("req", fun r -> string_of_int r.load.requests);
    ("err", fun r -> string_of_int r.load.errors);
  ]

let load_series =
  [
    ("median_ms", fun r -> r.load.median);
    ("p99_ms", fun r -> r.load.p99);
    ("achieved_rps", fun r -> r.load.achieved);
  ]

let dash format x = if Float.is_nan x then "-" else format x

let flag ok = if ok then 1.0 else 0.0
