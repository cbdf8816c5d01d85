open Sim
module Location = Net.Location
module Transport = Net.Transport
module Stats = Metrics.Stats
module Table = Metrics.Table

(* Every figure runs at this seed. *)
let seed = 42

(* A table's rows and measurements, built item by item and concatenated
   in order. *)
let tabulate f items =
  let rows, ms = List.split (List.map f items) in
  (List.concat rows, List.concat ms)

(* --- Figure 1 -------------------------------------------------------- *)

let fig1 ?(scale = 1.0) () =
  Runner.heading
    "Figure 1 — simple app (~100 ms compute + 1 read): centralized vs\n\
     geo-replicated storage vs inconsistent local (best possible)";
  let app = Apps.Bundle.simple in
  let rpc = Runner.scaled scale 40 in
  let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
  let central = run Runner.Central in
  let geo = run (Runner.Geo [ Location.va; Location.oh; Location.oregon ]) in
  let local = run Runner.Local in
  let rows, measurements =
    tabulate
      (fun loc ->
        let med r =
          match List.assoc_opt loc (Runner.by_loc r) with
          | Some s -> Stats.median s
          | None -> nan
        in
        let c = med central and g = med geo and l = med local in
        ( [ [ loc; Table.ms c; Table.ms g; Table.ms l ] ],
          [
            ("fig1." ^ loc ^ ".central", c);
            ("fig1." ^ loc ^ ".geo", g);
            ("fig1." ^ loc ^ ".local", l);
          ] ))
      Location.user_locations
  in
  Table.print
    ~header:[ "loc"; "centralized"; "geo-replicated"; "local (ideal)" ]
    ~rows;
  print_newline ();
  Table.print_bars
    (List.concat_map
       (fun loc ->
         let pick tag r =
           match List.assoc_opt loc (Runner.by_loc r) with
           | Some s -> [ (loc ^ " " ^ tag, Stats.median s) ]
           | None -> []
         in
         pick "central" central @ pick "geo    " geo @ pick "ideal  " local)
       Location.user_locations);
  measurements

(* --- Table 2 ---------------------------------------------------------- *)

let table2 () =
  Runner.heading "Table 2 — storage ping RTT (ms) from each location to the\nprimary in VA";
  let engine = Engine.create ~seed () in
  let meds = ref [] in
  Engine.run engine (fun () ->
      let net = Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split (Engine.rng ())) () in
      let kv = Store.Kv.create () in
      Store.Kv.load kv [ ("ping", Dval.Unit) ];
      let svc =
        Transport.serve ~loc:Location.va ~name:"storage-ping" (fun () ->
            ignore (Store.Kv.version_of kv "ping"))
      in
      List.iter
        (fun loc ->
          let s = Stats.create () in
          for _ = 1 to 200 do
            let t0 = Engine.now () in
            Transport.call net ~from:loc svc ();
            Stats.add s (Engine.now () -. t0)
          done;
          meds := (loc, Stats.median s) :: !meds)
        Location.user_locations);
  let paper = [ ("VA", 7.0); ("CA", 74.0); ("IE", 70.0); ("DE", 93.0); ("JP", 146.0) ] in
  Table.print
    ~header:[ "loc"; "measured"; "paper" ]
    ~rows:
      (List.map
         (fun loc ->
           [
             loc;
             Table.ms (List.assoc loc !meds);
             Table.ms (List.assoc loc paper);
           ])
         Location.user_locations);
  List.map (fun loc -> ("table2." ^ loc, List.assoc loc !meds)) Location.user_locations

(* --- Table 1 ---------------------------------------------------------- *)

(* Median execution time of a handler alone — compute plus its storage
   accesses at the deployment's cache latency, as the paper measures the
   WASM execution (§5.5 component 4): run it five times against a local
   store, no network. *)
let measured_exec_ms (info : Apps.Catalog.info) =
  let engine = Engine.create ~seed () in
  let result = ref nan in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let app =
        List.find (fun (a : Apps.Bundle.app) -> a.name = info.app) Apps.Bundle.evaluated
      in
      let data = app.seed (Rng.split rng) in
      let kv = Store.Kv.create ~access_latency:6.0 () in
      Store.Kv.load kv data;
      let reg = Radical.Registry.create () in
      List.iter
        (fun f -> ignore (Radical.Registry.register reg f))
        app.funcs;
      let entry = Option.get (Radical.Registry.find reg info.fn_name) in
      let gen = app.new_gen () in
      let grng = Rng.split rng in
      let s = Stats.create () in
      (* Draw arguments for this function from the app generator. *)
      let rec args_for n =
        if n > 10000 then failwith ("no args for " ^ info.fn_name)
        else
          let fn, args = gen grng in
          if fn = info.fn_name then args else args_for (n + 1)
      in
      for _ = 1 to 5 do
        let args = args_for 0 in
        let t0 = Engine.now () in
        (* Reads hit the cache; speculative writes are buffered in
           memory, exactly as in the near-user runtime. *)
        ignore
          (Radical.Execute.run entry
             ~read:(fun k ->
               match Store.Kv.get kv k with
               | Some { value; _ } -> Some value
               | None -> None)
             ~write:(fun _ _ -> ())
             args);
        Stats.add s (Engine.now () -. t0)
      done;
      result := Stats.median s);
  !result

let table1 () =
  Runner.heading
    "Table 1 — function catalog: writes, analyzability, measured median\n\
     execution time (vs paper), workload share";
  let reg = Radical.Registry.create () in
  List.iter (fun f -> ignore (Radical.Registry.register reg f)) Apps.Catalog.all_functions;
  let rows, ms =
    tabulate
      (fun (info : Apps.Catalog.info) ->
        let entry = Option.get (Radical.Registry.find reg info.fn_name) in
        let analyzable, dependent =
          match entry.derived with
          | None -> ("No", false)
          | Some d -> (
              match d.classification with
              | Analyzer.Derive.Dependent _ -> ("Yes*", true)
              | Analyzer.Derive.Static | Analyzer.Derive.Expensive
              | Analyzer.Derive.Manual ->
                  ("Yes", false))
        in
        let measured = measured_exec_ms info in
        ( [
            [
              info.fn_name;
              (if info.writes then "Yes" else "No");
              analyzable;
              Table.ms measured;
              Table.ms info.exec_ms;
              Printf.sprintf "%.1f%%" info.workload_pct;
            ];
          ],
          [
            ("table1." ^ info.fn_name ^ ".exec_ms", measured);
            ( "table1." ^ info.fn_name ^ ".dependent",
              if dependent then 1.0 else 0.0 );
          ] ))
      Apps.Catalog.table1
  in
  Table.print
    ~header:[ "function"; "writes"; "analyzable"; "exec (ms)"; "paper"; "workload%" ]
    ~rows;
  Printf.printf
    "\n(%d functions across 5 apps registered; %d analyzable. * = needed\n\
     the dependent-read optimization.)\n"
    (List.length (Radical.Registry.names reg))
    (Radical.Registry.analyzable_count reg);
  ms

(* --- Figures 4, 5, 6 --------------------------------------------------- *)

type eval_data = (Apps.Bundle.app * (string * Runner.result) list) list

let collect_eval ?(scale = 1.0) () =
  let rpc = Runner.scaled scale 40 in
  List.map
    (fun (app : Apps.Bundle.app) ->
      let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
      ( app,
        [
          ("baseline", run Runner.Central);
          ("radical", run Runner.Radical);
          ("ideal", run Runner.Local);
        ] ))
    Apps.Bundle.evaluated

let fig4 data =
  Runner.heading
    "Figure 4 — end-to-end latency per application: primary-datacenter\n\
     baseline vs Radical (red line = inconsistent local ideal)";
  let rows, ms =
    tabulate
      (fun ((app : Apps.Bundle.app), runs) ->
        let get tag = List.assoc tag runs in
        let b = get "baseline" and r = get "radical" and i = get "ideal" in
        let bm = Runner.median_of b
        and rm = Runner.median_of r
        and im = Runner.median_of i in
        let improvement = (bm -. rm) /. bm in
        let of_max = (bm -. rm) /. (bm -. im) in
        let vrate = Option.value ~default:nan r.validation_rate in
        ( [
            [
              app.name;
              Table.ms bm;
              Table.ms (Runner.p99_of b);
              Table.ms rm;
              Table.ms (Runner.p99_of r);
              Table.ms im;
              Table.pct improvement;
              Table.pct of_max;
              Table.pct vrate;
            ];
          ],
          [
            ("fig4." ^ app.name ^ ".baseline_median", bm);
            ("fig4." ^ app.name ^ ".radical_median", rm);
            ("fig4." ^ app.name ^ ".ideal_median", im);
            ("fig4." ^ app.name ^ ".improvement", improvement);
            ("fig4." ^ app.name ^ ".of_max", of_max);
            ("fig4." ^ app.name ^ ".validation_rate", vrate);
          ] ))
      data
  in
  Table.print
    ~header:
      [
        "app"; "base med"; "base p99"; "radical med"; "radical p99";
        "ideal med"; "improve"; "of max"; "val rate";
      ]
    ~rows;
  print_newline ();
  Table.print_bars
    (List.concat_map
       (fun ((app : Apps.Bundle.app), runs) ->
         [
           (app.name ^ " baseline", Runner.median_of (List.assoc "baseline" runs));
           (app.name ^ " radical ", Runner.median_of (List.assoc "radical" runs));
           (app.name ^ " ideal   ", Runner.median_of (List.assoc "ideal" runs));
         ])
       data);
  Printf.printf
    "\n(paper: improvements 28-35%%, 84-89%% of the maximum possible,\n\
     ~95%% validation success)\n";
  ms

let fig5 data =
  Runner.heading
    "Figure 5 — end-to-end latency per deployment location (red line =\n\
     inconsistent local ideal)";
  List.concat_map
    (fun ((app : Apps.Bundle.app), runs) ->
      Printf.printf "\n[%s]\n" app.name;
      let locs tag = Runner.by_loc (List.assoc tag runs) in
      let b = locs "baseline" and r = locs "radical" and i = locs "ideal" in
      let rows, ms =
        tabulate
          (fun loc ->
            match
              (List.assoc_opt loc b, List.assoc_opt loc r, List.assoc_opt loc i)
            with
            | Some sb, Some sr, Some si ->
                ( [
                    [
                      loc;
                      Table.ms (Stats.median sb);
                      Table.ms (Stats.p99 sb);
                      Table.ms (Stats.median sr);
                      Table.ms (Stats.p99 sr);
                      Table.ms (Stats.median si);
                    ];
                  ],
                  [
                    ( Printf.sprintf "fig5.%s.%s.baseline_median" app.name loc,
                      Stats.median sb );
                    ( Printf.sprintf "fig5.%s.%s.radical_median" app.name loc,
                      Stats.median sr );
                    ( Printf.sprintf "fig5.%s.%s.ideal_median" app.name loc,
                      Stats.median si );
                  ] )
            | _ -> ([], []))
          Location.user_locations
      in
      Table.print
        ~header:
          [ "loc"; "base med"; "base p99"; "radical med"; "radical p99"; "ideal" ]
        ~rows;
      ms)
    data

let fig6 data =
  Runner.heading "Figure 6 — per-function end-to-end latency, baseline vs Radical";
  List.concat_map
    (fun ((app : Apps.Bundle.app), runs) ->
      Printf.printf "\n[%s]\n" app.name;
      let b = Runner.by_fn (List.assoc "baseline" runs) in
      let r = Runner.by_fn (List.assoc "radical" runs) in
      let rows, ms =
        tabulate
          (fun (fn, sb) ->
            match List.assoc_opt fn r with
            | Some sr ->
                ( [
                    [
                      fn;
                      Table.ms (Stats.median sb);
                      Table.ms (Stats.p99 sb);
                      Table.ms (Stats.median sr);
                      Table.ms (Stats.p99 sr);
                      (match Apps.Catalog.find fn with
                      | Some i -> Table.ms i.exec_ms
                      | None -> "-");
                    ];
                  ],
                  [
                    ("fig6." ^ fn ^ ".baseline_median", Stats.median sb);
                    ("fig6." ^ fn ^ ".radical_median", Stats.median sr);
                  ] )
            | None -> ([], []))
          b
      in
      Table.print
        ~header:
          [ "function"; "base med"; "base p99"; "radical med"; "radical p99"; "exec" ]
        ~rows;
      ms)
    data

(* --- §5.6 replication --------------------------------------------------- *)

let write_heavy_fn n_keys =
  let open Fdsl.Ast in
  {
    fn_name = Printf.sprintf "write%d" n_keys;
    params = [ "tag" ];
    body =
      Compute
        ( 1.0,
          Seq
            (List.init n_keys (fun i ->
                 Write
                   ( Concat [ Str (Printf.sprintf "w%d-" i); Input "tag" ],
                     Input "tag" ))) );
  }

let replication () =
  Runner.heading
    "§5.6 — replicated LVI server: added request latency vs number of\n\
     locks (paper model: 3 + 2.3 * L ms)";
  let lock_counts = [ 1; 2; 4; 8 ] in
  let funcs = List.map write_heavy_fn lock_counts in
  let measure features l =
    Runner.simulate ~seed ~jitter:0.0 ~tracer:Metrics.Tracer.noop
      ~locations:[ Location.ca ]
      (Runner.Radical_with (Radical.Deployment.config features))
      ~funcs ~schema:[]
      ~data:(fun _ -> [])
      (fun d _ ->
        Engine.sleep 1000.0 (* raft warm-up *);
        let s = Stats.create () in
        for i = 1 to 9 do
          let latency, _ =
            Runner.invoke d ~from:Location.ca
              (Printf.sprintf "write%d" l)
              [ Dval.Str (Printf.sprintf "t%d" i) ]
          in
          Stats.add s latency;
          Engine.sleep 500.0
        done;
        Stats.median s)
  in
  let rows, ms =
    tabulate
      (fun l ->
        let single = measure [] l in
        let repl = measure [ Replicated ] l in
        let added = repl -. single in
        let model = 3.0 +. (2.3 *. float_of_int l) in
        ( [
            [
              string_of_int l;
              Table.ms single;
              Table.ms repl;
              Table.ms added;
              Table.ms model;
            ];
          ],
          [ (Printf.sprintf "repl.L%d.added_ms" l, added) ] ))
      lock_counts
  in
  Table.print
    ~header:[ "locks"; "singleton"; "replicated"; "added"; "paper model" ]
    ~rows;
  ms

(* --- §5.7 cost ---------------------------------------------------------- *)

let cost () =
  Runner.heading "§5.7 — monthly cost, baseline vs Radical";
  let p = Cost.defaults in
  Printf.printf "infrastructure: baseline $%.2f, Radical $%.2f (%.0f%% increase)\n\n"
    (Cost.infrastructure_baseline p)
    (Cost.infrastructure_radical p)
    ((Cost.infrastructure_radical p /. Cost.infrastructure_baseline p -. 1.0)
    *. 100.0);
  let volumes = [ 1e6; 1e7; 1e8 ] in
  let rows, ms =
    tabulate
      (fun v ->
        let b = Cost.at_scale p ~invocations_per_month:v in
        ( [
            [
              Printf.sprintf "%.0fM" (v /. 1e6);
              Printf.sprintf "$%.2f" b.baseline_total;
              Printf.sprintf "$%.2f" b.radical_total;
              Printf.sprintf "%.2fx" b.overhead_ratio;
            ];
          ],
          [
            (Printf.sprintf "cost.%.0fM.baseline" (v /. 1e6), b.baseline_total);
            (Printf.sprintf "cost.%.0fM.radical" (v /. 1e6), b.radical_total);
          ] ))
      volumes
  in
  Table.print
    ~header:[ "invocations/month"; "baseline"; "radical"; "ratio" ]
    ~rows;
  ms

(* --- §5.5 sensitivity: execution time vs benefit ------------------------ *)

let sensitivity () =
  Runner.heading
    "§5.5 — sensitivity to function execution time: Radical vs baseline\n\
     for a synthetic handler (1 read + T ms compute), clients in CA";
  let open Fdsl.Ast in
  let exec_times = [ 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 400.0 ] in
  let fn_of t =
    {
      fn_name = Printf.sprintf "work%.0f" t;
      params = [ "k" ];
      body = Compute (t, Read (Input "k"));
    }
  in
  let app t : Apps.Bundle.app =
    {
      name = "sweep";
      funcs = [ fn_of t ];
      schema = [];
      seed = (fun _ -> [ ("hot", Dval.Str "v") ]);
      new_gen =
        (fun () -> fun _ -> (Printf.sprintf "work%.0f" t, [ Dval.Str "hot" ]));
    }
  in
  let rows, ms =
    tabulate
      (fun t ->
        let run sys =
          Runner.run ~seed ~locations:[ Location.ca ] ~clients_per_loc:4
            ~requests_per_client:25 ~jitter:0.0 sys (app t)
        in
        let radical = Runner.median_of (run Runner.Radical) in
        let central = Runner.median_of (run Runner.Central) in
        let benefit = central -. radical in
        ( [
            [
              Printf.sprintf "%.0f" t;
              Table.ms central;
              Table.ms radical;
              Table.ms benefit;
            ];
          ],
          [ (Printf.sprintf "sensitivity.T%.0f.benefit" t, benefit) ] ))
      exec_times
  in
  Table.print
    ~header:[ "exec (ms)"; "baseline"; "radical"; "benefit" ]
    ~rows;
  Printf.printf
    "\n(paper: functions above ~20 ms benefit; the benefit saturates at\n\
     lat_nu<->ns once execution fully hides the LVI request)\n";
  ms

(* --- §3.2 gradual cache bootstrap ----------------------------------------- *)

let bootstrap () =
  Runner.heading
    "§3.2 — gradual cache bootstrap: validation success over time when\n\
     every near-user cache starts empty (each miss repairs the cache)";
  let app = Apps.Bundle.social in
  let buckets = Hashtbl.create 16 in
  let bucket_size = 200 in
  let n_requests = 2400 in
  let done_count = ref 0 in
  let config = { Radical.Framework.default_config with warm_caches = false } in
  Runner.simulate ~seed ~jitter:0.05 ~tracer:Metrics.Tracer.noop
    ~locations:Location.user_locations (Runner.Radical_with config)
    ~funcs:app.funcs ~schema:app.schema
    ~data:(fun rng -> app.seed (Rng.split rng))
    (fun d rng ->
      let fw = Runner.framework d in
      let gen = app.new_gen () in
      let rngs = Array.init 50 (fun _ -> Rng.split rng) in
      Workload.Driver.run_clients ~n:50 ~iterations:(n_requests / 50)
        ~think_time:100.0 (fun ~client ~iter:_ ->
          let from = List.nth Location.user_locations (client mod 5) in
          let fn, args = gen rngs.(client) in
          let o = Radical.Framework.invoke fw ~from fn args in
          let idx = !done_count / bucket_size in
          incr done_count;
          let ok, total =
            Option.value ~default:(0, 0) (Hashtbl.find_opt buckets idx)
          in
          let ok = if o.path = Radical.Runtime.Speculative then ok + 1 else ok in
          Hashtbl.replace buckets idx (ok, total + 1)));
  let rows, ms =
    tabulate
      (fun idx ->
        let ok, total = Hashtbl.find buckets idx in
        let rate = float_of_int ok /. float_of_int (max 1 total) in
        let first = idx * bucket_size in
        ( [ [ Printf.sprintf "%d-%d" first (first + total); Table.pct rate ] ],
          [ (Printf.sprintf "bootstrap.bucket%d" idx, rate) ] ))
      (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) buckets []))
  in
  Table.print ~header:[ "requests"; "speculative-path rate" ] ~rows;
  Printf.printf
    "\n(cold caches are repaired by mismatch responses: the speculative\n\
     path climbs from ~0%% toward the warm-cache rate — §3.2's gradual\n\
     bootstrap, no durability required)\n";
  ms

(* --- Skew sweep (§5.3: high skew stresses the locking scheme) -------- *)

let skew () =
  Runner.heading
    "§5.3 — workload skew vs validation success: the social app with\n\
     the user-selection zipf parameter swept (paper runs at 0.99)";
  let thetas = [ 0.0; 0.5; 0.9; 0.99; 1.2 ] in
  let rows, ms =
    tabulate
      (fun theta ->
        let app : Apps.Bundle.app =
          {
            Apps.Bundle.social with
            name = Printf.sprintf "social-z%.2f" theta;
            new_gen =
              (fun () ->
                let g = Apps.Social.gen ~zipf_theta:theta () in
                fun rng -> Apps.Social.next g rng);
          }
        in
        let r = Runner.run ~seed ~requests_per_client:40 Runner.Radical app in
        let vrate = Option.value ~default:nan r.validation_rate in
        ( [
            [
              Printf.sprintf "%.2f" theta;
              Table.ms (Runner.median_of r);
              Table.ms (Runner.p99_of r);
              Table.pct vrate;
            ];
          ],
          [ (Printf.sprintf "skew.z%.2f.validation" theta, vrate) ] ))
      thetas
  in
  Table.print
    ~header:[ "zipf theta"; "radical med"; "radical p99"; "val rate" ]
    ~rows;
  Printf.printf
    "\n(higher skew concentrates writes on hot users' timelines,\n\
     increasing cross-site invalidations and lock contention; the\n\
     evaluation's 0.99 still validates ~95%%)\n";
  ms

(* --- Throughput parity (§5.3's footnote) --------------------------------- *)

let throughput () =
  Runner.heading
    "§5.3 — throughput parity: completed requests in a fixed window,\n\
     Radical vs primary-datacenter baseline (paper: identical; the only\n\
     added component is the LVI server)";
  let app = Apps.Bundle.social in
  let window = 20_000.0 (* virtual ms *) in
  let completed sys =
    let count = ref 0 in
    Runner.simulate ~seed ~jitter:0.05 ~tracer:Metrics.Tracer.noop
      ~locations:Location.user_locations sys ~funcs:app.funcs
      ~schema:app.schema
      ~data:(fun rng -> app.seed (Rng.split rng))
      (fun d rng ->
        let gen = app.new_gen () in
        let rngs = Array.init 50 (fun _ -> Rng.split rng) in
        Workload.Driver.run_for ~n:50 ~duration:window ~think_time:50.0
          (fun ~client ~iter:_ ->
            let from = List.nth Location.user_locations (client mod 5) in
            let fn, args = gen rngs.(client) in
            ignore (Runner.invoke d ~from fn args);
            incr count));
    !count
  in
  let r = completed Runner.Radical in
  let c = completed Runner.Central in
  let ratio = float_of_int r /. float_of_int c in
  Table.print
    ~header:[ "system"; "requests / 20 s window"; "throughput ratio" ]
    ~rows:
      [
        [ "baseline (central)"; string_of_int c; "1.00" ];
        [ "radical"; string_of_int r; Printf.sprintf "%.2f" ratio ];
      ];
  Printf.printf
    "\n(closed loop, so Radical's lower per-request latency yields a\n\
     slightly higher completion count; the LVI server is not a\n\
     bottleneck at this load)\n";
  [ ("throughput.ratio", ratio) ]

(* --- Per-phase latency breakdown (tracing) ------------------------------- *)

let phases ?(scale = 1.0) () =
  Runner.heading
    "Per-phase latency breakdown — the social app under Radical with\n\
     request tracing enabled: where each request path spends its time";
  let tracer = Metrics.Tracer.create () in
  let rpc = Runner.scaled scale 25 in
  let r =
    Runner.run ~seed ~requests_per_client:rpc ~tracer Runner.Radical
      Apps.Bundle.social
  in
  let per_path =
    List.fold_left
      (fun acc ((_, phase, path), s) ->
        let key = (path, phase) in
        let merged =
          match List.assoc_opt key acc with
          | Some prev -> Stats.merge prev s
          | None -> s
        in
        (key, merged) :: List.remove_assoc key acc)
      []
      (Metrics.Tracer.phase_stats tracer)
  in
  let paths = [ "Speculative"; "Backup"; "Fallback" ] in
  let rows, ms =
    tabulate
      (fun path ->
        let here =
          List.filter_map
            (fun ((p, phase), s) -> if p = path then Some (phase, s) else None)
            per_path
        in
        let total = List.assoc_opt "total" here in
        tabulate
          (fun (phase, s) ->
            ( [
                [
                  path;
                  phase;
                  string_of_int (Stats.count s);
                  Table.ms (Stats.mean s);
                  Table.ms (Stats.median s);
                  Table.ms (Stats.p99 s);
                  (match total with
                  | Some t when phase <> "total" && Stats.mean t > 0.0 ->
                      Table.pct (Stats.mean s /. Stats.mean t)
                  | _ -> "-");
                ];
              ],
              [
                ( Printf.sprintf "phases.%s.%s.mean_ms" path phase,
                  Stats.mean s );
              ] ))
          (List.sort (fun (a, _) (b, _) -> compare a b) here))
      paths
  in
  Table.print
    ~header:[ "path"; "phase"; "count"; "mean"; "median"; "p99"; "of total" ]
    ~rows;
  Printf.printf "\n%s\n" (Metrics.Tracer.phases_json tracer);
  Printf.printf
    "\n(the Speculative path's lvi_rtt dominates but overlaps the\n\
     speculate phase; Backup requests additionally pay backup_exec and\n\
     cache_repair; %d traces collected, %d samples)\n"
    (Metrics.Tracer.trace_count tracer)
    (List.length r.samples);
  ("phases.traces", float_of_int (Metrics.Tracer.trace_count tracer)) :: ms

(* --- Ablations ----------------------------------------------------------- *)

let ablation ?(scale = 1.0) () =
  Runner.heading
    "Ablation — why a single overlapped LVI request: Radical vs\n\
     no-overlap vs per-access coordination (naive edge) vs baselines";
  let app = Apps.Bundle.social in
  let rpc = Runner.scaled scale 25 in
  let run sys = Runner.run ~seed ~requests_per_client:rpc sys app in
  let no_overlap =
    { Radical.Framework.default_config with overlap = false }
  in
  let fast_cache =
    { Radical.Framework.default_config with cache_latency = 0.5 }
  in
  let systems =
    [
      ("radical (overlap)", Runner.Radical);
      ("radical (no overlap)", Runner.Radical_with no_overlap);
      ("radical (in-memory cache)", Runner.Radical_with fast_cache);
      ("naive edge (per-op RTT)", Runner.Naive_edge);
      ("validate-per-read", Runner.Validate_per_read);
      ("baseline (central)", Runner.Central);
      ("ideal (local)", Runner.Local);
    ]
  in
  let rows, ms =
    tabulate
      (fun (name, sys) ->
        let r = run sys in
        let med = Runner.median_of r in
        ( [ [ name; Table.ms med; Table.ms (Runner.p99_of r) ] ],
          [ ("ablation." ^ name, med) ] ))
      systems
  in
  Table.print ~header:[ "system"; "median"; "p99" ] ~rows;
  ms
