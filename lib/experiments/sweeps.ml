open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime

let printf = Printf.printf
let sprintf = Printf.sprintf

(* Two distinct accounts of [n]: [src] and a uniform other one. *)
let accounts wrng n src =
  let dst = (src + 1 + Rng.int wrng (n - 1)) mod n in
  [ Dval.Str (sprintf "a%d" src); Dval.Str (sprintf "a%d" dst) ]

let with_server (f : Server.config -> Server.config) =
  { Framework.default_config with server = f Server.default_config }

let requests_per_client scale = Stdlib.max 10 (int_of_float (30.0 *. scale))

(* --- batching ------------------------------------------------------------

   Three key families so conflict-aware admission has something to
   tell apart: payments touch "bal:*" (read-modify-write on two
   accounts), wall posts touch "wall:*" (read-modify-write on one
   wall), wall reads are write-free and ride the ro_fast path. Account
   choice is lightly skewed (theta 0.2) so lock contention exists but
   never dominates the Raft append device we are sweeping. *)

module Batching = struct
  let n_accounts = 500
  let n_walls = 50
  let zipf = Workload.Zipf.create ~n:n_accounts ~theta:0.2
  let mix = Workload.Mix.create [ (`Pay, 0.45); (`Post, 0.20); (`Read, 0.35) ]
  let wall wrng = Dval.Str (sprintf "w%d" (Rng.int wrng n_walls))

  let draw wrng =
    match Workload.Mix.sample mix wrng with
    | `Pay -> ("pay", accounts wrng n_accounts (Workload.Zipf.sample zipf wrng))
    | `Post -> ("post", [ wall wrng; Dval.Str "x" ])
    | `Read -> ("read_wall", [ wall wrng ])

  (* Modeled durable-append cost per Raft log entry (virtual ms).
     Without it the simulated fsync is free and every unbatched proposal
     commits in one network round — there would be no resource for
     group commit to amortize and the sweep would show nothing. 1 ms
     caps the unbatched device at ~1000 entries/s, which the sweep's top
     offered rate deliberately exceeds. *)
  let append_cost = 1.0

  let with_batching (c : Framework.config) batching =
    { c with server = { c.server with batching } }

  (* The variants of each deployment mode, and the rates they get. *)
  let modes =
    let repl = Radical.Deployment.config [ Replicated ] in
    let all_on = Radical.Deployment.config [ Replicated; Batched ] in
    let no_batching = Server.no_batching in
    [
      ( "singleton",
        ( [
            ("unbatched", Radical.Deployment.config []);
            ("all-on", Radical.Deployment.config [ Batched ]);
          ],
          [ 200.0; 800.0 ] ) );
      ( "repl",
        ( [
            ("unbatched", with_batching repl { no_batching with append_cost });
            ( "group-commit",
              with_batching repl
                { no_batching with group_commit = true; append_cost } );
            ( "gc+lock-flush",
              with_batching repl
                {
                  no_batching with
                  group_commit = true;
                  persist_window = 2.0;
                  append_cost;
                } );
            ( "all-on",
              with_batching all_on { all_on.server.batching with append_cost }
            );
          ],
          [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] ) );
    ]

  let variants, repl_rates = List.assoc "repl" modes

  let loads rows name =
    List.filter_map
      (fun (r : _ Sweep.row) ->
        match r.key with
        | "repl", v, _ when v = name -> Some r.load
        | _ -> None)
      rows

  let peak rows name = Runner.peak_sustainable (loads rows name)

  let table mode heading notes =
    let variants, rates = List.assoc mode modes in
    {
      Sweep.heading;
      keys =
        List.concat_map
          (fun (v, _) -> List.map (fun rate -> (mode, v, rate)) rates)
          variants;
      bench =
        (fun { key = _, v, rate; _ } ->
          sprintf "batch.%s.%s.r%.0f" mode v rate);
      series = Sweep.load_series;
      notes;
    }

  let print_peaks rows =
    printf
      "\npeak sustainable throughput (highest offered rate with median\n\
       within 2x the variant's lowest-rate median):\n";
    List.iter
      (fun (v, _) -> printf "  %-14s %.0f req/s\n" v (peak rows v))
      variants

  let verdict rows =
    let top_rate = List.fold_left Float.max 0.0 repl_rates in
    let at_top name =
      List.find
        (fun (l : Runner.load) -> l.offered = top_rate)
        (loads rows name)
    in
    let u_top = at_top "unbatched" and g_top = at_top "group-commit" in
    let u_peak = peak rows "unbatched" and g_peak = peak rows "group-commit" in
    let median_ok = g_top.median < u_top.median in
    let peak_ok = g_peak > u_peak in
    printf
      "\nacceptance (replicated, group commit vs unbatched):\n\
      \  median @ %s: %s vs %s  -> %s\n\
      \  peak sustainable: %.0f vs %.0f req/s  -> %s\n"
      (Runner.rate_label top_rate) (Table.ms g_top.median)
      (Table.ms u_top.median)
      (if median_ok then "OK (lower with group commit)" else "FAIL")
      g_peak u_peak
      (if peak_ok then "OK (higher with group commit)" else "FAIL");
    [
      ("batch.repl.unbatched.peak_rps", u_peak);
      ("batch.repl.group-commit.peak_rps", g_peak);
      ("batch.accept.median", Sweep.flag median_ok);
      ("batch.accept.peak", Sweep.flag peak_ok);
    ]

  (* A singleton server has no Raft log: both columns show "-". *)
  let raft_entry format stat dist r =
    Sweep.dash format (Option.fold ~none:nan ~some:stat (Sweep.dist r dist))

  let sweep ~scale =
    let duration = 250.0 *. scale in
    {
      Sweep.title =
        sprintf
          "Batching load sweep — group commit / lock-record flush /\n\
           conflict-aware admission / followup coalescing, open-loop Poisson\n\
           load, modeled %.1f ms durable append per Raft log entry"
          append_cost;
      intro =
        sprintf
          "open-loop window %.0f ms per cell; achieved = completions /\n\
           time-to-last-completion, so a variant that falls behind the\n\
           offered rate shows it directly.\n"
          duration;
      funcs =
        [
          Synthetic.transfer "pay" ~src:"bal:" ~dst:"bal:"; Synthetic.post;
          Synthetic.read_wall;
        ];
      seed_data =
        List.init n_accounts (fun i -> (sprintf "bal:a%d" i, Dval.int 100))
        @ List.init n_walls (fun i -> (sprintf "wall:w%d" i, Dval.Str ""));
      config = (fun (mode, v, _) -> List.assoc v (fst (List.assoc mode modes)));
      requests = (fun (_, _, rate) -> Sweep.Open { rate; duration; draw });
      traced = (fun _ -> true);
      tables =
        [
          table "singleton"
            "\n-- singleton server (batching should cost nothing) --\n" ignore;
          table "repl"
            (sprintf
               "\n-- replicated server (az_rtt 1.5 ms, append %.1f ms) --\n"
               append_cost)
            print_peaks;
        ];
      columns =
        (("variant", fun { Sweep.key = _, v, _; _ } -> v) :: Sweep.load_columns)
        @ [
            ( "cmds/entry",
              raft_entry (sprintf "%.1f") Stats.mean "batch.raft_entry" );
            ("append q p99", raft_entry Table.ms Stats.p99 "queue.raft_entry");
          ];
      verdict;
    }
end

(* --- cache-update propagation -------------------------------------------

   A small pool of walls that every site reads and writes. A wall
   posted from site A leaves every other site's cached copy stale;
   without propagation the next read there speculates against the stale
   value, mismatches, and pays the backup path. With propagation the
   committed (value, version) arrives ~one-way-delay later and
   subsequent reads validate. Reads dominate the mix so the freshness
   of the read path, not write throughput, decides the numbers. *)

module Propagation = struct
  let n_walls = 12
  let mix = Workload.Mix.create [ (`Post, 0.30); (`Read, 0.70) ]

  let draw rng ~clients =
    let wrng = Rng.split rng in
    let client_rngs = Array.init clients (fun _ -> Rng.split rng) in
    fun ~client ~iter:_ ->
      let crng = client_rngs.(client) in
      let wall = sprintf "w%d" (Rng.int wrng n_walls) in
      match Workload.Mix.sample mix crng with
      | `Post -> ("post", [ Dval.Str wall; Dval.Str "x" ])
      | `Read -> ("read_wall", [ Dval.Str wall ])

  let window prop_window =
    { Server.enabled = true; prop_window; invalidate_only = false }

  let variants =
    [
      ("off", Server.no_propagation); ("w=0ms", window 0.0);
      ("w=2ms", window 2.0); ("w=10ms", window 10.0);
      ("inval", { (window 2.0) with invalidate_only = true });
    ]

  let spec_rate r =
    let invocations = Sweep.count r "runtime.invocations" in
    if invocations = 0 then 0.0
    else
      float_of_int (Sweep.count r "runtime.speculative")
      /. float_of_int invocations

  (* Commit-to-install freshness lag, over every site. *)
  let lag_p50 (r : _ Sweep.row) =
    match
      List.filter
        (fun (name, st) ->
          String.starts_with ~prefix:"queue.prop_lag:" name
          && Stats.count st > 0)
        r.dists
    with
    | [] -> nan
    | (_, first) :: rest ->
        Stats.median
          (List.fold_left (fun acc (_, st) -> Stats.merge acc st) first rest)

  let recs_per_msg r =
    match Sweep.dist r "batch.propagation" with
    | Some b when Stats.count b > 0 -> Stats.mean b
    | _ -> nan

  let notes =
    "\nnotes: 'installed' counts records that changed a cache (newer\n\
     version installed, or a stale entry evicted under 'inval'); the\n\
     rest lost the version guard. Invalidate-only trades propagation\n\
     payload for a repair mismatch on each evicted key's next read, so\n\
     its speculation rate stays near 'off' — its win is bandwidth and\n\
     never serving the stale value, not latency.\n"

  let verdict rows =
    let off = Sweep.find rows "off" and on = Sweep.find rows "w=2ms" in
    let spec_ok = spec_rate on > spec_rate off in
    let median_ok = on.load.median < off.load.median in
    printf
      "\nacceptance (w=2ms vs off):\n\
      \  speculation success: %.1f%% vs %.1f%%  -> %s\n\
      \  median latency: %s vs %s  -> %s\n"
      (100.0 *. spec_rate on)
      (100.0 *. spec_rate off)
      (if spec_ok then "OK (higher with propagation)" else "FAIL")
      (Table.ms on.load.median) (Table.ms off.load.median)
      (if median_ok then "OK (lower with propagation)" else "FAIL");
    [
      ("propagate.accept.spec_rate", Sweep.flag spec_ok);
      ("propagate.accept.median", Sweep.flag median_ok);
    ]

  let sweep ~scale =
    let clients_per_loc = 2 in
    let requests_per_client = requests_per_client scale in
    {
      Sweep.title =
        "Cache-update propagation — multi-site shared keys, speculation\n\
         success and latency vs. propagation off / Nagle window sweep /\n\
         invalidate-only";
      intro =
        sprintf
          "5 sites x %d clients x %d requests, 30%% posts / 70%% reads over %d\n\
           shared walls, 150 ms think time. A post from one site leaves every\n\
           other site's cache stale; propagation decides how the next read\n\
           there fares.\n"
          clients_per_loc requests_per_client n_walls;
      funcs = [ Synthetic.post; Synthetic.read_wall ];
      seed_data =
        List.init n_walls (fun i -> (sprintf "wall:w%d" i, Dval.Str ""));
      config =
        (fun v ->
          with_server (fun s ->
              { s with propagation = List.assoc v variants }));
      (* The drain lets the last followups commit and their propagation
         windows flush before the counters are read. *)
      requests =
        (fun _ ->
          Closed
            {
              clients_per_loc;
              requests_per_client;
              think_time = 150.0;
              drain = 500.0;
              draw;
            });
      traced = (fun _ -> true);
      tables =
        [
          {
            heading = "";
            keys = List.map fst variants;
            bench = (fun r -> "propagate." ^ r.key);
            series =
              [
                ("spec_rate", spec_rate);
                ("median_ms", fun r -> r.load.median);
                ("p99_ms", fun r -> r.load.p99);
                ( "prop_batches",
                  fun r -> float_of_int (Sweep.count r "server.prop_batches") );
              ];
            notes = (fun _ -> print_string notes);
          };
        ];
      columns =
        [
          ("propagation", fun r -> r.key);
          ("spec rate", fun r -> sprintf "%.1f%%" (100.0 *. spec_rate r));
          ("median", fun r -> Table.ms r.load.median);
          ("p99", fun r -> Table.ms r.load.p99);
          ("backup", fun r -> string_of_int (Sweep.on_path Runtime.Backup r));
          ("req", fun r -> string_of_int r.load.requests);
          ("err", fun r -> string_of_int r.load.errors);
          Sweep.counted "msgs" "server.prop_batches";
          Sweep.counted "recs" "server.prop_records";
          Sweep.counted "installed" "runtime.prop_installed";
          ("recs/msg", fun r -> Sweep.dash (sprintf "%.1f") (recs_per_msg r));
          ("lag p50", fun r -> Sweep.dash Table.ms (lag_p50 r));
        ];
      verdict;
    }
end

(* --- read leases ----------------------------------------------------------

   A pool of items read with zipf(0.99) popularity — the hottest items
   absorb most of the traffic, which is exactly where leases pay: the
   first validated read of an item from a site earns a lease, and every
   later read of it there is served locally until a writer settles the
   grant. Updates pick their victim uniformly: the 95/5 read/write mix
   (Mix.read_heavy) plus the spread-out write churn keeps every item
   leased at every site most of the time, the way a read-mostly
   catalog behaves. *)

module Leases = struct
  open Fdsl.Ast

  let n_items = 16
  let item param = Read (Synthetic.key "item:" param)

  (* Statically read-only, single key: the lease-local candidate. *)
  let get_item =
    { fn_name = "get_item"; params = [ "k" ]; body = Compute (0.5, item "k") }

  (* Statically read-only over two keys: local only when BOTH are
     covered — exercises full-coverage gating. *)
  let compare_items =
    {
      fn_name = "compare_items";
      params = [ "a"; "b" ];
      body =
        Compute
          ( 0.5,
            Let
              ( "x",
                item "a",
                Let
                  ( "y",
                    item "b",
                    Record_lit [ ("a", Var "x"); ("b", Var "y") ] ) ) );
    }

  (* The writer: read-modify-write on one item — must settle outstanding
     leases before its write validates. *)
  let update_item =
    {
      fn_name = "update_item";
      params = [ "k"; "v" ];
      body =
        Compute
          ( 1.0,
            Let
              ( "cur",
                item "k",
                Seq [ Write (Synthetic.key "item:" "k", Input "v"); Var "cur" ]
              ) );
    }

  let zipf = Workload.Zipf.create ~n:n_items ~theta:0.99

  (* get_item dominates compare_items 3:1 inside the 95% read share;
     compare needs BOTH its keys covered to stay local. *)
  let mix =
    Workload.Mix.read_heavy
      ~reads:[ `Get; `Get; `Get; `Compare ]
      ~writes:[ `Update ] ()

  let draw rng ~clients =
    let client_rngs = Array.init clients (fun _ -> Rng.split rng) in
    fun ~client ~iter ->
      let crng = client_rngs.(client) in
      let item () =
        Dval.Str (sprintf "i%d" (Workload.Zipf.sample zipf crng))
      in
      match Workload.Mix.sample mix crng with
      | `Get -> ("get_item", [ item () ])
      | `Compare -> ("compare_items", [ item (); item () ])
      | `Update ->
          (* Uniform victim: update churn spreads over the pool instead
             of hammering the zipf head. *)
          ( "update_item",
            [
              Dval.Str (sprintf "i%d" (Rng.int crng n_items));
              Dval.Str (sprintf "v%d-%d" client iter);
            ] )

  let variants =
    [
      ("off", Server.no_leases); ("on", Server.default_leases);
      (* Revocation off: writers always wait out expiry + ε. Reads are
         just as local; the cost shows up on the write path. *)
      ("on/expiry", { Server.default_leases with revoke = false });
    ]

  (* The read-only calls and the writes. *)
  let split (r : _ Sweep.row) =
    List.partition
      (fun (fn, _) -> fn = get_item.fn_name || fn = compare_items.fn_name)
      r.outcomes

  let ro_median r = Stats.median (Sweep.latencies (fst (split r)))
  let ro_p99 r = Stats.p99 (Sweep.latencies (fst (split r)))
  let w_median r = Stats.median (Sweep.latencies (snd (split r)))
  let ro_requests r = List.length (fst (split r))
  let count name r = float_of_int (Sweep.count r name)

  let notes =
    "\nnotes: 'local' counts invocations that never left their site\n\
     (zero LVI round trips); 'blocked' counts writes that found\n\
     outstanding grants and settled them first — by revocation RPCs\n\
     ('revokes') or by waiting out expiry + eps ('waits'). The\n\
     expiry-only variant shows the same read-side win with the write\n\
     path paying full lease terms instead of one revocation RTT.\n"

  let verdict rows =
    let off = Sweep.find rows "off" and on = Sweep.find rows "on" in
    let reduction =
      if ro_median off > 0.0 then 1.0 -. (ro_median on /. ro_median off)
      else 0.0
    in
    let median_ok = reduction >= 0.40 in
    let sound = on.load.errors = 0 && off.load.errors = 0 in
    printf
      "\nacceptance (on vs off):\n\
      \  read-only median: %s vs %s  -> %.0f%% reduction, %s\n\
      \  errors: %d+%d  -> %s\n"
      (Table.ms (ro_median on)) (Table.ms (ro_median off)) (100.0 *. reduction)
      (if median_ok then "OK (>= 40%)" else "FAIL (< 40%)")
      on.load.errors off.load.errors
      (if sound then "OK" else "FAIL");
    [
      ("lease.accept.ro_median_reduction", reduction);
      ("lease.accept.median", Sweep.flag median_ok);
      ("lease.accept.no_errors", Sweep.flag sound);
    ]

  let sweep ~scale =
    let clients_per_loc = 3 in
    let requests_per_client = requests_per_client scale in
    let ms f r = Table.ms (f r) in
    {
      Sweep.title =
        "Read leases — read-heavy zipf mix, read-only median latency with\n\
         leases off / on (revocation) / on (expiry-wait only)";
      intro =
        sprintf
          "5 sites x %d clients x %d requests, 95%% reads (get 3:1 compare) /\n\
           5%% updates over %d items (zipf(0.99) reads, uniform updates),\n\
           100 ms think time. A validated read earns its site a per-key\n\
           lease; while every read key of a statically read-only function is\n\
           covered, the invocation never leaves the site.\n"
          clients_per_loc requests_per_client n_items;
      funcs = [ get_item; compare_items; update_item ];
      seed_data =
        List.init n_items (fun i -> (sprintf "item:i%d" i, Dval.Str "v0"));
      config =
        (fun v ->
          with_server (fun s -> { s with leases = List.assoc v variants }));
      (* The drain lets straggling followups commit and their settles
         conclude. *)
      requests =
        (fun _ ->
          Closed
            {
              clients_per_loc;
              requests_per_client;
              think_time = 100.0;
              drain = 1000.0;
              draw;
            });
      traced = (fun _ -> false);
      tables =
        [
          {
            heading = "";
            keys = List.map fst variants;
            bench = (fun r -> "lease." ^ r.key);
            series =
              [
                ("ro_median_ms", ro_median); ("ro_p99_ms", ro_p99);
                ("write_median_ms", w_median);
                ("mix_median_ms", fun r -> r.load.median);
                ( "local_rate",
                  fun r ->
                    if ro_requests r = 0 then 0.0
                    else
                      float_of_int (Sweep.on_path Runtime.Local r)
                      /. float_of_int (ro_requests r) );
                ("grants", count "server.lease_grants");
                ("revokes", count "server.lease_revokes");
                ("expiry_waits", count "server.lease_expiry_waits");
                ("blocked_writes", count "server.lease_blocked_writes");
                ("errors", fun r -> float_of_int r.load.errors);
              ];
            notes = (fun _ -> print_string notes);
          };
        ];
      columns =
        [
          ("leases", fun r -> r.key); ("ro median", ms ro_median);
          ("ro p99", ms ro_p99); ("write med", ms w_median);
          ("mix med", fun r -> Table.ms r.load.median);
          ("local", fun r -> string_of_int (Sweep.on_path Runtime.Local r));
          ("ro req", fun r -> string_of_int (ro_requests r));
          ("req", fun r -> string_of_int r.load.requests);
          ("err", fun r -> string_of_int r.load.errors);
          Sweep.counted "grants" "server.lease_grants";
          Sweep.counted "revokes" "server.lease_revokes";
          Sweep.counted "waits" "server.lease_expiry_waits";
          Sweep.counted "blocked" "server.lease_blocked_writes";
        ];
      verdict;
    }
end

(* --- sharding -------------------------------------------------------------

   Eight key families "f<i>:bal:*" that the analyzer can pin to shards
   statically: each family has its own read-modify-write payment
   function touching only its prefix, so a prefix directory routes the
   whole function to one shard with no per-request inspection. A
   second set of transfer functions moves value between family i and
   family i+1 — at >= 2 shards those families land on different
   shards, so every transfer takes the cross-shard prepare/commit
   path. A cell's cross-shard fraction mixes the two. *)

module Sharding = struct
  let n_families = 8
  let n_accounts = 200 (* per family *)
  let fam i = sprintf "f%d:bal:" i

  (* Families map round-robin onto shards, so every shard owns
     [n_families / shards] whole families and the pay workload is
     provably disjoint across shards. *)
  let strategy shards =
    if shards = 1 then Shard.Directory.Hash { shards = 1 }
    else
      Shard.Directory.Prefix
        {
          shards;
          rules =
            List.init n_families (fun i -> (sprintf "f%d:" i, i mod shards));
          default = 0;
        }

  (* Per-shard Raft append cost: each shard runs its own lock cluster,
     so N shards are N independent 1 ms-per-entry append devices — the
     honest resource that sharding actually multiplies. *)
  let append_cost = 1.0

  let config (shards, _, _) =
    let repl = Radical.Deployment.config [ Replicated ] in
    {
      repl with
      server =
        { repl.server with batching = { Server.no_batching with append_cost } };
      sharding = strategy shards;
    }

  let draw cross_frac wrng =
    let family = Rng.int wrng n_families in
    let cross = Rng.float wrng 1.0 < cross_frac in
    let fn = sprintf (if cross then "xfer%d" else "pay%d") family in
    (fn, accounts wrng n_accounts (Rng.int wrng n_accounts))

  let shard_counts = [ 1; 2; 4 ]
  let mix_rate = 400.0

  (* The 4-shard disjoint cell whose traces show whether a statically
     single-shard function keeps the unchanged one-round-trip protocol:
     no shard_prepare phase may appear anywhere in them. *)
  let traced_cell = (4, 0.0, 200.0)

  let peak rows shards =
    Runner.peak_sustainable
      (List.filter_map
         (fun (r : _ Sweep.row) ->
           match r.key with
           | s, 0.0, _ when s = shards -> Some r.load
           | _ -> None)
         rows)

  let print_peaks rows =
    printf
      "\npeak sustainable throughput (highest offered rate with median\n\
       within 2x the shard count's lowest-rate median):\n";
    List.iter
      (fun s ->
        printf "  %d shard%s  %.0f req/s\n" s
          (if s = 1 then " " else "s")
          (peak rows s))
      shard_counts

  let verdict rows =
    let traced = Sweep.find rows traced_cell in
    printf "\nper-shard load (traced disjoint cell, 4 shards):\n";
    List.iter
      (fun (name, requests) ->
        match Scanf.sscanf_opt name "shard.%d.requests%!" Fun.id with
        | Some shard ->
            printf "  shard %d: %d requests, %d cross-shard\n" shard requests
              (Sweep.count traced (sprintf "shard.%d.cross" shard))
        | None -> ())
      traced.counts;
    let p1 = peak rows 1 and p4 = peak rows 4 in
    let scaling_ok = p4 >= 3.0 *. p1 in
    let one_rtt_ok = Sweep.count traced "phase.shard_prepare" = 0 in
    printf
      "\nacceptance:\n\
      \  peak 4 shards vs 1: %.0f vs %.0f req/s  -> %s\n\
      \  single-shard fns one round trip (no shard_prepare phases): %s\n"
      p4 p1
      (if scaling_ok then "OK (>= 3x)" else "FAIL (< 3x)")
      (if one_rtt_ok then "OK" else "FAIL");
    List.map
      (fun s -> (sprintf "shard.peak.s%d_rps" s, peak rows s))
      shard_counts
    @ [
        ("shard.accept.scaling", Sweep.flag scaling_ok);
        ("shard.accept.one_rtt", Sweep.flag one_rtt_ok);
      ]

  let sweep ~scale =
    let duration = 250.0 *. scale in
    {
      Sweep.title =
        sprintf
          "Shard scaling sweep — prefix-sharded LVI service, analyzer-routed\n\
           single-shard payments vs. cross-shard transfers, open-loop Poisson\n\
           load, one replicated lock cluster per shard (%.1f ms append)"
          append_cost;
      intro = "";
      funcs =
        List.init n_families (fun i ->
            Synthetic.transfer (sprintf "pay%d" i) ~src:(fam i) ~dst:(fam i))
        @ List.init n_families (fun i ->
              Synthetic.transfer (sprintf "xfer%d" i) ~src:(fam i)
                ~dst:(fam ((i + 1) mod n_families)));
      seed_data =
        List.concat_map
          (fun i ->
            List.init n_accounts (fun k ->
                (sprintf "%sa%d" (fam i) k, Dval.int 1000)))
          (List.init n_families Fun.id);
      config;
      (* One Raft cluster per shard, each warmed up by [open_loop]. *)
      requests =
        (fun (_, cross_frac, rate) ->
          Open { rate; duration; draw = draw cross_frac });
      traced = (fun key -> key = traced_cell);
      tables =
        [
          {
            heading =
              "\n-- disjoint workload (0% cross-shard): shard-count scaling --\n";
            keys =
              List.concat_map
                (fun s ->
                  List.map
                    (fun rate -> (s, 0.0, rate))
                    [ 200.0; 400.0; 800.0; 1600.0 ])
                shard_counts;
            bench =
              (fun { key = s, _, rate; _ } -> sprintf "shard.s%d.r%.0f" s rate);
            series = Sweep.load_series;
            notes = print_peaks;
          };
          {
            heading =
              sprintf "\n-- cross-shard mix at 4 shards, %s offered --\n"
                (Runner.rate_label mix_rate);
            keys = List.map (fun x -> (4, x, mix_rate)) [ 0.0; 0.1; 0.5 ];
            bench =
              (fun { key = _, x, _; _ } ->
                sprintf "shard.mix.x%.0f" (100.0 *. x));
            series = [ ("median_ms", fun r -> r.load.median) ];
            notes = ignore;
          };
        ];
      columns =
        ("shards", fun { Sweep.key = s, _, _; _ } -> string_of_int s)
        :: ("cross", fun { key = _, x, _; _ } -> sprintf "%.0f%%" (100.0 *. x))
        :: Sweep.load_columns
        @ [
            Sweep.counted "x-reqs" "server.cross_requests";
            Sweep.counted "x-aborts" "server.cross_aborts";
            Sweep.counted "prepares" "server.shard_prepares";
          ];
      verdict;
    }
end

let batch = Batching.sweep
let propagate = Propagation.sweep
let lease = Leases.sweep
let shard = Sharding.sweep
