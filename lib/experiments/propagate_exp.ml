open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime


(* --- multi-site shared-key workload ----------------------------------

   A small pool of walls that every site reads and writes. A wall
   posted from site A leaves every other site's cached copy stale;
   without propagation the next read there speculates against the stale
   value, mismatches, and pays the backup path. With propagation the
   committed (value, version) arrives ~one-way-delay later and
   subsequent reads validate. Reads dominate the mix so the freshness
   of the read path, not write throughput, decides the numbers. *)

let n_walls = 12

let funcs = [ Synthetic.post; Synthetic.read_wall ]

let seed_data =
  List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str ""))

(* --- variants --------------------------------------------------------- *)

type variant = { v_name : string; v_prop : Server.propagation }

let variants =
  [
    { v_name = "off"; v_prop = Server.no_propagation };
    {
      v_name = "w=0ms";
      v_prop = { Server.enabled = true; prop_window = 0.0; invalidate_only = false };
    };
    {
      v_name = "w=2ms";
      v_prop = { Server.enabled = true; prop_window = 2.0; invalidate_only = false };
    };
    {
      v_name = "w=10ms";
      v_prop = { Server.enabled = true; prop_window = 10.0; invalidate_only = false };
    };
    {
      v_name = "inval";
      v_prop = { Server.enabled = true; prop_window = 2.0; invalidate_only = true };
    };
  ]

(* --- one cell --------------------------------------------------------- *)

type cell = {
  c_variant : string;
  c_spec_rate : float; (* speculative completions / invocations *)
  c_median : float;
  c_p99 : float;
  c_backup : int; (* invocations that paid the backup path *)
  c_requests : int;
  c_errors : int;
  c_prop_batches : int; (* cache_update messages sent by the server *)
  c_prop_records : int; (* update records they carried (summed) *)
  c_installed : int; (* records that actually changed a cache *)
  c_batch_mean : float; (* records per message; nan when none sent *)
  c_lag_p50 : float; (* commit-to-install freshness lag; nan when none *)
}

let run_cell ~seed ~variant ~clients_per_loc ~requests_per_client =
  let tracer = Tracer.create () in
  let config =
    {
      Framework.default_config with
      server = { Server.default_config with propagation = variant.v_prop };
    }
  in
  Runner.simulate ~seed ~jitter:0.05 ~tracer
    ~locations:Net.Location.user_locations (Runner.Radical_with config) ~funcs
    ~schema:[]
    ~data:(fun _ -> seed_data)
    (fun d rng ->
      let fw = Runner.framework d in
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let wrng = Rng.split rng in
      let lat = Stats.create () in
      let errors = ref 0 in
      let backup = ref 0 in
      let requests = ref 0 in
      let n_clients = n_sites * clients_per_loc in
      let client_rngs = Array.init n_clients (fun _ -> Rng.split rng) in
      let mix = Workload.Mix.create [ (`Post, 0.30); (`Read, 0.70) ] in
      Workload.Driver.run_clients ~n:n_clients ~iterations:requests_per_client
        ~think_time:150.0 (fun ~client ~iter:_ ->
          let from = List.nth sites (client mod n_sites) in
          let crng = client_rngs.(client) in
          let wall = Printf.sprintf "w%d" (Rng.int wrng n_walls) in
          let fn, args =
            match Workload.Mix.sample mix crng with
            | `Post -> ("post", [ Dval.Str wall; Dval.Str "x" ])
            | `Read -> ("read_wall", [ Dval.Str wall ])
          in
          incr requests;
          let o = Framework.invoke fw ~from fn args in
          if Result.is_error o.Runtime.value then incr errors;
          if o.path = Runtime.Backup then incr backup;
          Stats.add lat o.latency);
      (* Let the last followups commit and their propagation windows
         flush before reading the counters. *)
      Engine.sleep 500.0;
      let srv = Server.stats (Framework.server fw) in
      let invocations, spec, installed =
        List.fold_left
          (fun (inv, sp, ins) loc ->
            let s = Runtime.stats (Framework.runtime fw loc) in
            (inv + s.invocations, sp + s.speculative, ins + s.prop_installed))
          (0, 0, 0) sites
      in
      let batch_mean =
        match List.assoc_opt "propagation" (Tracer.batch_stats tracer) with
        | Some b when Stats.count b > 0 -> Stats.mean b
        | _ -> nan
      in
      let lag_p50 =
        let lags =
          List.filter_map
            (fun (label, st) ->
              if
                String.length label > 9
                && String.sub label 0 9 = "prop_lag:"
                && Stats.count st > 0
              then Some st
              else None)
            (Tracer.queue_stats tracer)
        in
        match lags with
        | [] -> nan
        | first :: rest ->
            Stats.median (List.fold_left Stats.merge first rest)
      in
      {
        c_variant = variant.v_name;
        c_spec_rate =
          (if invocations = 0 then 0.0
           else float_of_int spec /. float_of_int invocations);
        c_median = Stats.median lat;
        c_p99 = Stats.p99 lat;
        c_backup = !backup;
        c_requests = !requests;
        c_errors = !errors;
        c_prop_batches = srv.prop_batches;
        c_prop_records = srv.prop_records;
        c_installed = installed;
        c_batch_mean = batch_mean;
        c_lag_p50 = lag_p50;
      })

(* --- the experiment --------------------------------------------------- *)

let print_cells cells =
  Table.print
    ~header:
      [
        "propagation"; "spec rate"; "median"; "p99"; "backup"; "req"; "err";
        "msgs"; "recs"; "installed"; "recs/msg"; "lag p50";
      ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.c_variant;
             Printf.sprintf "%.1f%%" (100.0 *. c.c_spec_rate);
             Table.ms c.c_median;
             Table.ms c.c_p99;
             string_of_int c.c_backup;
             string_of_int c.c_requests;
             string_of_int c.c_errors;
             string_of_int c.c_prop_batches;
             string_of_int c.c_prop_records;
             string_of_int c.c_installed;
             (if Float.is_nan c.c_batch_mean then "-"
              else Printf.sprintf "%.1f" c.c_batch_mean);
             (if Float.is_nan c.c_lag_p50 then "-" else Table.ms c.c_lag_p50);
           ])
         cells)

let measurements_of cells =
  List.concat_map
    (fun c ->
      let p = "propagate." ^ c.c_variant in
      [
        (p ^ ".spec_rate", c.c_spec_rate);
        (p ^ ".median_ms", c.c_median);
        (p ^ ".p99_ms", c.c_p99);
        (p ^ ".prop_batches", float_of_int c.c_prop_batches);
      ])
    cells

let run ?(scale = 1.0) ?(seed = 42) () =
  Runner.heading
    "Cache-update propagation — multi-site shared keys, speculation\n\
     success and latency vs. propagation off / Nagle window sweep /\n\
     invalidate-only";
  let clients_per_loc = 2 in
  let requests_per_client =
    Stdlib.max 10 (int_of_float (30.0 *. scale))
  in
  Printf.printf
    "5 sites x %d clients x %d requests, 30%% posts / 70%% reads over %d\n\
     shared walls, 150 ms think time. A post from one site leaves every\n\
     other site's cache stale; propagation decides how the next read\n\
     there fares.\n"
    clients_per_loc requests_per_client n_walls;
  let cells =
    List.map
      (fun v ->
        run_cell ~seed ~variant:v ~clients_per_loc ~requests_per_client)
      variants
  in
  print_cells cells;
  let cell name = List.find (fun c -> c.c_variant = name) cells in
  let off = cell "off" and on = cell "w=2ms" in
  let spec_ok = on.c_spec_rate > off.c_spec_rate in
  let median_ok = on.c_median < off.c_median in
  Printf.printf
    "\nnotes: 'installed' counts records that changed a cache (newer\n\
     version installed, or a stale entry evicted under 'inval'); the\n\
     rest lost the version guard. Invalidate-only trades propagation\n\
     payload for a repair mismatch on each evicted key's next read, so\n\
     its speculation rate stays near 'off' — its win is bandwidth and\n\
     never serving the stale value, not latency.\n";
  Printf.printf
    "\nacceptance (w=2ms vs off):\n\
    \  speculation success: %.1f%% vs %.1f%%  -> %s\n\
    \  median latency: %s vs %s  -> %s\n"
    (100.0 *. on.c_spec_rate)
    (100.0 *. off.c_spec_rate)
    (if spec_ok then "OK (higher with propagation)" else "FAIL")
    (Table.ms on.c_median) (Table.ms off.c_median)
    (if median_ok then "OK (lower with propagation)" else "FAIL");
  measurements_of cells
  @ [
      ("propagate.accept.spec_rate", if spec_ok then 1.0 else 0.0);
      ("propagate.accept.median", if median_ok then 1.0 else 0.0);
    ]
