open Sim
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server

(* --- synthetic shardable workload ------------------------------------

   Eight key families "f<i>:bal:*" that the analyzer can pin to shards
   statically: each family has its own read-modify-write payment
   function touching only its prefix, so a prefix directory routes the
   whole function to one shard with no per-request inspection. A
   second set of transfer functions moves value between family i and
   family i+1 — at >= 2 shards those families land on different
   shards, so every transfer takes the cross-shard prepare/commit
   path. The [cross_frac] knob mixes the two. *)

let n_families = 8
let n_accounts = 200 (* per family *)

let fam i = Printf.sprintf "f%d:bal:" i

let pay_fn i =
  Synthetic.transfer (Printf.sprintf "pay%d" i) ~src:(fam i) ~dst:(fam i)

let xfer_fn i =
  Synthetic.transfer (Printf.sprintf "xfer%d" i) ~src:(fam i)
    ~dst:(fam ((i + 1) mod n_families))

let funcs =
  List.init n_families pay_fn @ List.init n_families xfer_fn

let seed_data =
  List.concat_map
    (fun i ->
      List.init n_accounts (fun k ->
          (Printf.sprintf "%sa%d" (fam i) k, Dval.int 1000)))
    (List.init n_families Fun.id)

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
          List.init n_families (fun i ->
              (Printf.sprintf "f%d:" i, i mod shards));
        default = 0;
      }

(* Per-shard Raft append cost: each shard runs its own lock cluster, so
   N shards are N independent 1 ms-per-entry append devices — the
   honest resource that sharding actually multiplies. *)
let append_cost = 1.0

(* --- one sweep cell --------------------------------------------------- *)

type cell = {
  c_shards : int;
  c_cross_frac : float;
  c_load : Runner.load;
  c_cross : int; (* coordinated cross-shard requests, summed *)
  c_cross_aborts : int;
  c_prepares : int; (* participant slices prepared, summed *)
}

let run_cell ~seed ~tracer ~shards ~cross_frac ~rate ~duration =
  let repl = Radical.Deployment.config [ Replicated ] in
  let batching = { Server.no_batching with append_cost } in
  let config =
    {
      repl with
      server = { repl.server with batching };
      sharding = Some (strategy shards);
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
      (* One Raft cluster per shard, each warmed up by [open_loop]. *)
      let load =
        Runner.open_loop fw ~rate ~duration ~rng:(Rng.split rng)
          (fun ~arrival ->
            let from = List.nth sites (arrival mod n_sites) in
            let family = Rng.int wrng n_families in
            let cross = Rng.float wrng 1.0 < cross_frac in
            let fn =
              Printf.sprintf (if cross then "xfer%d" else "pay%d") family
            in
            let src = Rng.int wrng n_accounts in
            let dst = (src + 1 + Rng.int wrng (n_accounts - 1)) mod n_accounts in
            let args =
              [
                Dval.Str (Printf.sprintf "a%d" src);
                Dval.Str (Printf.sprintf "a%d" dst);
              ]
            in
            Framework.invoke fw ~from fn args)
      in
      let cross, aborts, prepares =
        List.fold_left
          (fun (c, a, p) s ->
            let st = Server.stats s in
            ( c + st.cross_requests,
              a + st.cross_aborts,
              p + st.shard_prepares ))
          (0, 0, 0) (Framework.servers fw)
      in
      {
        c_shards = shards;
        c_cross_frac = cross_frac;
        c_load = load;
        c_cross = cross;
        c_cross_aborts = aborts;
        c_prepares = prepares;
      })

(* --- the sweep -------------------------------------------------------- *)

let print_cells cells =
  Table.print
    ~header:
      [
        "shards"; "cross"; "offered"; "achieved"; "median"; "p99"; "req";
        "err"; "x-reqs"; "x-aborts"; "prepares";
      ]
    ~rows:
      (List.map
         (fun c ->
           let l = c.c_load in
           [
             string_of_int c.c_shards;
             Printf.sprintf "%.0f%%" (100.0 *. c.c_cross_frac);
             Runner.rate_label l.offered;
             Printf.sprintf "%.0f/s" l.achieved;
             Table.ms l.median;
             Table.ms l.p99;
             string_of_int l.requests;
             string_of_int l.errors;
             string_of_int c.c_cross;
             string_of_int c.c_cross_aborts;
             string_of_int c.c_prepares;
           ])
         cells)

let run ?(scale = 1.0) ?(seed = 42) () =
  Runner.heading
    (Printf.sprintf
       "Shard scaling sweep — prefix-sharded LVI service, analyzer-routed\n\
        single-shard payments vs. cross-shard transfers, open-loop Poisson\n\
        load, one replicated lock cluster per shard (%.1f ms append)"
       append_cost);
  let duration = 250.0 *. scale in
  let rates = [ 200.0; 400.0; 800.0; 1600.0 ] in
  let shard_counts = [ 1; 2; 4 ] in

  Printf.printf
    "\n-- disjoint workload (0%% cross-shard): shard-count scaling --\n";
  let disjoint =
    List.map
      (fun shards ->
        ( shards,
          List.map
            (fun rate ->
              run_cell ~seed ~tracer:Tracer.noop ~shards ~cross_frac:0.0 ~rate
                ~duration)
            rates ))
      shard_counts
  in
  print_cells (List.concat_map snd disjoint);
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the shard count's lowest-rate median):\n";
  let peak shards =
    Runner.peak_sustainable
      (List.map (fun c -> c.c_load) (List.assoc shards disjoint))
  in
  List.iter
    (fun s -> Printf.printf "  %d shard%s  %.0f req/s\n" s
        (if s = 1 then " " else "s") (peak s))
    shard_counts;

  Printf.printf "\n-- cross-shard mix at 4 shards, %s offered --\n"
    (Runner.rate_label 400.0);
  let mixed =
    List.map
      (fun cross_frac ->
        run_cell ~seed ~tracer:Tracer.noop ~shards:4 ~cross_frac ~rate:400.0
          ~duration)
      [ 0.0; 0.1; 0.5 ]
  in
  print_cells mixed;

  (* Traced disjoint cell: a statically single-shard function must keep
     the unchanged one-round-trip protocol — no shard_prepare phase may
     appear anywhere in its traces. *)
  let tracer = Tracer.create () in
  ignore
    (run_cell ~seed ~tracer ~shards:4 ~cross_frac:0.0 ~rate:200.0 ~duration);
  let prepare_phases =
    List.filter
      (fun ((_, phase, _), _) -> phase = "shard_prepare")
      (Tracer.phase_stats tracer)
  in
  Printf.printf "\nper-shard load (traced disjoint cell, 4 shards):\n";
  List.iter
    (fun (shard, (reqs, cross)) ->
      Printf.printf "  shard %d: %d requests, %d cross-shard\n" shard reqs
        cross)
    (Tracer.shard_stats tracer);

  let p1 = peak 1 and p4 = peak 4 in
  let scaling_ok = p4 >= 3.0 *. p1 in
  let one_rtt_ok = prepare_phases = [] in
  Printf.printf
    "\nacceptance:\n\
    \  peak 4 shards vs 1: %.0f vs %.0f req/s  -> %s\n\
    \  single-shard fns one round trip (no shard_prepare phases): %s\n"
    p4 p1
    (if scaling_ok then "OK (>= 3x)" else "FAIL (< 3x)")
    (if one_rtt_ok then "OK" else "FAIL");

  List.concat_map
    (fun (shards, cells) ->
      List.concat_map
        (fun c ->
          let l = c.c_load in
          let p = Printf.sprintf "shard.s%d.r%.0f" shards l.offered in
          [
            (p ^ ".median_ms", l.median);
            (p ^ ".p99_ms", l.p99);
            (p ^ ".achieved_rps", l.achieved);
          ])
        cells)
    disjoint
  @ List.map
      (fun c ->
        ( Printf.sprintf "shard.mix.x%.0f.median_ms" (100.0 *. c.c_cross_frac),
          c.c_load.median ))
      mixed
  @ List.map (fun s -> (Printf.sprintf "shard.peak.s%d_rps" s, peak s))
      shard_counts
  @ [
      ("shard.accept.scaling", if scaling_ok then 1.0 else 0.0);
      ("shard.accept.one_rtt", if one_rtt_ok then 1.0 else 0.0);
    ]
