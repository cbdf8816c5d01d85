open Sim
module Transport = Net.Transport
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server

type measurement = string * float

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

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

let key prefix input = Fdsl.Ast.(Concat [ Str prefix; Input input ])

let fam i = Printf.sprintf "f%d:bal:" i

let pay_fn i =
  let open Fdsl.Ast in
  let p = fam i in
  {
    fn_name = Printf.sprintf "pay%d" i;
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s",
              Read (key p "src"),
              Let
                ( "d",
                  Read (key p "dst"),
                  Seq
                    [
                      Write (key p "src", Binop (Sub, Var "s", Int 1L));
                      Write (key p "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

let xfer_fn i =
  let open Fdsl.Ast in
  let p_src = fam i and p_dst = fam ((i + 1) mod n_families) in
  {
    fn_name = Printf.sprintf "xfer%d" i;
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s",
              Read (key p_src "src"),
              Let
                ( "d",
                  Read (key p_dst "dst"),
                  Seq
                    [
                      Write (key p_src "src", Binop (Sub, Var "s", Int 1L));
                      Write (key p_dst "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

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
  c_offered : float;
  c_achieved : float;
  c_median : float;
  c_p99 : float;
  c_requests : int;
  c_errors : int;
  c_cross : int; (* coordinated cross-shard requests, summed *)
  c_cross_aborts : int;
  c_prepares : int; (* participant slices prepared, summed *)
}

let run_cell ?(seed = 42) ?(trace = false) ~shards ~cross_frac ~rate
    ~duration () =
  let engine = Engine.create ~seed () in
  let out = ref None in
  let traced = ref None in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let net = Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split rng) () in
      let tracer = if trace then Tracer.create () else Tracer.noop in
      let repl = Radical.Deployment.config [ Replicated ] in
      let batching = { Server.no_batching with append_cost } in
      let config =
        {
          repl with
          server = { repl.server with batching };
          sharding = Some (strategy shards);
        }
      in
      let fw = Framework.create ~config ~tracer ~net ~funcs ~data:seed_data () in
      Engine.sleep 800.0 (* raft warm-up, one cluster per shard *);
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let wrng = Rng.split rng in
      let lat = Stats.create () in
      let errors = ref 0 in
      let t0 = Engine.now () in
      let t_last = ref t0 in
      let n =
        Workload.Driver.run_open ~rate ~duration ~rng:(Rng.split rng)
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
            let o = Framework.invoke fw ~from fn args in
            if Result.is_error o.Radical.Runtime.value then incr errors;
            Stats.add lat o.latency;
            t_last := Float.max !t_last (Engine.now ()))
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
      Framework.stop fw;
      if trace then traced := Some tracer;
      let elapsed_s = Float.max 1e-9 ((!t_last -. t0) /. 1000.0) in
      out :=
        Some
          {
            c_shards = shards;
            c_cross_frac = cross_frac;
            c_offered = rate;
            c_achieved = float_of_int n /. elapsed_s;
            c_median = Stats.median lat;
            c_p99 = Stats.p99 lat;
            c_requests = n;
            c_errors = !errors;
            c_cross = cross;
            c_cross_aborts = aborts;
            c_prepares = prepares;
          });
  match !out with Some c -> (c, !traced) | None -> assert false

(* --- the sweep -------------------------------------------------------- *)

let rate_label r = Printf.sprintf "%.0f/s" r

(* Highest offered rate before the latency knee (median within 2x the
   shard count's own lowest-rate median) — same saturation criterion as
   the batching sweep. *)
let peak_sustainable cells =
  match cells with
  | [] -> 0.0
  | first :: _ ->
      let base = first.c_median in
      List.fold_left
        (fun acc c ->
          if c.c_median <= 2.0 *. base then Float.max acc c.c_offered else acc)
        0.0 cells

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
           [
             string_of_int c.c_shards;
             Printf.sprintf "%.0f%%" (100.0 *. c.c_cross_frac);
             rate_label c.c_offered;
             Printf.sprintf "%.0f/s" c.c_achieved;
             Table.ms c.c_median;
             Table.ms c.c_p99;
             string_of_int c.c_requests;
             string_of_int c.c_errors;
             string_of_int c.c_cross;
             string_of_int c.c_cross_aborts;
             string_of_int c.c_prepares;
           ])
         cells)

let run ?(scale = 1.0) ?(seed = 42) () =
  heading
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
              fst
                (run_cell ~seed ~shards ~cross_frac:0.0 ~rate ~duration ()))
            rates ))
      shard_counts
  in
  print_cells (List.concat_map snd disjoint);
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the shard count's lowest-rate median):\n";
  let peak shards = peak_sustainable (List.assoc shards disjoint) in
  List.iter
    (fun s -> Printf.printf "  %d shard%s  %.0f req/s\n" s
        (if s = 1 then " " else "s") (peak s))
    shard_counts;

  Printf.printf "\n-- cross-shard mix at 4 shards, %s offered --\n"
    (rate_label 400.0);
  let mixed =
    List.map
      (fun cross_frac ->
        fst
          (run_cell ~seed ~shards:4 ~cross_frac ~rate:400.0 ~duration ()))
      [ 0.0; 0.1; 0.5 ]
  in
  print_cells mixed;

  (* Traced disjoint cell: a statically single-shard function must keep
     the unchanged one-round-trip protocol — no shard_prepare phase may
     appear anywhere in its traces. *)
  let cell, tracer =
    run_cell ~seed ~trace:true ~shards:4 ~cross_frac:0.0 ~rate:200.0
      ~duration ()
  in
  ignore cell;
  let tracer = Option.get tracer in
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
          let p = Printf.sprintf "shard.s%d.r%.0f" shards c.c_offered in
          [
            (p ^ ".median_ms", c.c_median);
            (p ^ ".p99_ms", c.c_p99);
            (p ^ ".achieved_rps", c.c_achieved);
          ])
        cells)
    disjoint
  @ List.map
      (fun c ->
        ( Printf.sprintf "shard.mix.x%.0f.median_ms" (100.0 *. c.c_cross_frac),
          c.c_median ))
      mixed
  @ List.map (fun s -> (Printf.sprintf "shard.peak.s%d_rps" s, peak s))
      shard_counts
  @ [
      ("shard.accept.scaling", if scaling_ok then 1.0 else 0.0);
      ("shard.accept.one_rtt", if one_rtt_ok then 1.0 else 0.0);
    ]
