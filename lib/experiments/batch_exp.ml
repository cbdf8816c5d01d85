open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Tracer = Metrics.Tracer
module Framework = Radical.Framework
module Server = Radical.Server

(* --- synthetic mixed workload ----------------------------------------

   Three key families so conflict-aware admission has something to
   tell apart: payments touch "bal:*" (read-modify-write on two
   accounts), wall posts touch "wall:*" (read-modify-write on one
   wall), wall reads are write-free and ride the ro_fast path. Account
   choice is lightly skewed (theta 0.2) so lock contention exists but
   never dominates the Raft append device we are sweeping. *)

let n_accounts = 500
let n_walls = 50

let funcs =
  [ Synthetic.transfer "pay" ~src:"bal:" ~dst:"bal:"; Synthetic.post;
    Synthetic.read_wall ]

let seed_data =
  List.init n_accounts (fun i -> (Printf.sprintf "bal:a%d" i, Dval.int 100))
  @ List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str ""))

(* --- variants --------------------------------------------------------- *)

type variant = { v_name : string; v_config : Framework.config }

(* Modeled durable-append cost per Raft log entry (virtual ms). Without
   it the simulated fsync is free and every unbatched proposal commits
   in one network round — there would be no resource for group commit
   to amortize and the sweep would show nothing. 1 ms caps the
   unbatched device at ~1000 entries/s, which the sweep's top offered
   rate deliberately exceeds. *)
let append_cost = 1.0

let with_batching (c : Framework.config) batching =
  { c with server = { c.server with batching } }

let replicated_variants =
  let repl = Radical.Deployment.config [ Replicated ] in
  let all_on = Radical.Deployment.config [ Replicated; Batched ] in
  [
    {
      v_name = "unbatched";
      v_config = with_batching repl { Server.no_batching with append_cost };
    };
    {
      v_name = "group-commit";
      v_config =
        with_batching repl
          { Server.no_batching with group_commit = true; append_cost };
    };
    {
      v_name = "gc+lock-flush";
      v_config =
        with_batching repl
          {
            Server.no_batching with
            group_commit = true;
            request_flush = true;
            persist_window = 2.0;
            append_cost;
          };
    };
    {
      v_name = "all-on";
      v_config =
        with_batching all_on { all_on.server.batching with append_cost };
    };
  ]

let singleton_variants =
  [
    { v_name = "unbatched"; v_config = Radical.Deployment.config [] };
    { v_name = "all-on"; v_config = Radical.Deployment.config [ Batched ] };
  ]

(* --- one sweep cell --------------------------------------------------- *)

type cell = {
  c_variant : string;
  c_load : Runner.load;
  c_batch_mean : float; (* raft_entry commands per entry; nan singleton *)
  c_queue_p99 : float; (* raft_entry proposal queueing delay; nan singleton *)
}

let run_cell ~seed ~variant ~rate ~duration =
  let tracer = Tracer.create () in
  Runner.simulate ~seed ~jitter:0.05 ~tracer
    ~locations:Net.Location.user_locations (Runner.Radical_with variant.v_config)
    ~funcs
    ~schema:[]
    ~data:(fun _ -> seed_data)
    (fun d rng ->
      let fw = Runner.framework d in
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let zipf = Workload.Zipf.create ~n:n_accounts ~theta:0.2 in
      let mix =
        Workload.Mix.create [ (`Pay, 0.45); (`Post, 0.20); (`Read, 0.35) ]
      in
      let wrng = Rng.split rng in
      let load =
        Runner.open_loop fw ~rate ~duration ~rng:(Rng.split rng)
          (fun ~arrival ->
            let from = List.nth sites (arrival mod n_sites) in
            let fn, args =
              match Workload.Mix.sample mix wrng with
              | `Pay ->
                  let src = Workload.Zipf.sample zipf wrng in
                  let dst =
                    (src + 1 + Rng.int wrng (n_accounts - 1)) mod n_accounts
                  in
                  ( "pay",
                    [
                      Dval.Str (Printf.sprintf "a%d" src);
                      Dval.Str (Printf.sprintf "a%d" dst);
                    ] )
              | `Post ->
                  ( "post",
                    [
                      Dval.Str (Printf.sprintf "w%d" (Rng.int wrng n_walls));
                      Dval.Str "x";
                    ] )
              | `Read ->
                  ( "read_wall",
                    [ Dval.Str (Printf.sprintf "w%d" (Rng.int wrng n_walls)) ]
                  )
            in
            Framework.invoke fw ~from fn args)
      in
      (* A singleton server has no Raft log: both stay nan. *)
      let batch_mean, queue_p99 =
        match
          ( List.assoc_opt "raft_entry" (Tracer.batch_stats tracer),
            List.assoc_opt "raft_entry" (Tracer.queue_stats tracer) )
        with
        | Some b, Some q -> (Stats.mean b, Stats.p99 q)
        | Some b, None -> (Stats.mean b, nan)
        | None, _ -> (nan, nan)
      in
      {
        c_variant = variant.v_name;
        c_load = load;
        c_batch_mean = batch_mean;
        c_queue_p99 = queue_p99;
      })

(* --- the sweep -------------------------------------------------------- *)

let print_cells cells =
  Table.print
    ~header:
      [
        "variant"; "offered"; "achieved"; "median"; "p99"; "req"; "err";
        "cmds/entry"; "append q p99";
      ]
    ~rows:
      (List.map
         (fun c ->
           let l = c.c_load in
           [
             c.c_variant;
             Runner.rate_label l.offered;
             Printf.sprintf "%.0f/s" l.achieved;
             Table.ms l.median;
             Table.ms l.p99;
             string_of_int l.requests;
             string_of_int l.errors;
             (if Float.is_nan c.c_batch_mean then "-"
              else Printf.sprintf "%.1f" c.c_batch_mean);
             (if Float.is_nan c.c_queue_p99 then "-"
              else Table.ms c.c_queue_p99);
           ])
         cells)

let measurements_of prefix cells =
  List.concat_map
    (fun c ->
      let l = c.c_load in
      let p = Printf.sprintf "batch.%s.%s.r%.0f" prefix c.c_variant l.offered in
      [
        (p ^ ".median_ms", l.median);
        (p ^ ".p99_ms", l.p99);
        (p ^ ".achieved_rps", l.achieved);
      ])
    cells

let run ?(scale = 1.0) ?(seed = 42) () =
  Runner.heading
    (Printf.sprintf
       "Batching load sweep — group commit / lock-record flush /\n\
        conflict-aware admission / followup coalescing, open-loop Poisson\n\
        load, modeled %.1f ms durable append per Raft log entry"
       append_cost);
  let duration = 250.0 *. scale in
  let repl_rates = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] in
  let single_rates = [ 200.0; 800.0 ] in
  Printf.printf
    "open-loop window %.0f ms per cell; achieved = completions /\n\
     time-to-last-completion, so a variant that falls behind the\n\
     offered rate shows it directly.\n"
    duration;

  Printf.printf "\n-- singleton server (batching should cost nothing) --\n";
  let single_cells =
    List.concat_map
      (fun v ->
        List.map
          (fun rate ->
            run_cell ~seed ~variant:v ~rate ~duration)
          single_rates)
      singleton_variants
  in
  print_cells single_cells;

  Printf.printf "\n-- replicated server (az_rtt 1.5 ms, append %.1f ms) --\n"
    append_cost;
  let repl_cells =
    List.concat_map
      (fun v ->
        List.map
          (fun rate ->
            run_cell ~seed ~variant:v ~rate ~duration)
          repl_rates)
      replicated_variants
  in
  print_cells repl_cells;

  let cells_of name =
    List.filter_map
      (fun c -> if c.c_variant = name then Some c.c_load else None)
      repl_cells
  in
  let unbatched = cells_of "unbatched" in
  let gc = cells_of "group-commit" in
  let top_rate = List.fold_left (fun a r -> Float.max a r) 0.0 repl_rates in
  let at_top loads =
    List.find (fun (l : Runner.load) -> l.offered = top_rate) loads
  in
  let u_top = at_top unbatched and g_top = at_top gc in
  let u_peak = Runner.peak_sustainable unbatched
  and g_peak = Runner.peak_sustainable gc in
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the variant's lowest-rate median):\n";
  List.iter
    (fun v ->
      Printf.printf "  %-14s %.0f req/s\n" v.v_name
        (Runner.peak_sustainable (cells_of v.v_name)))
    replicated_variants;
  let median_ok = g_top.median < u_top.median in
  let peak_ok = g_peak > u_peak in
  Printf.printf
    "\nacceptance (replicated, group commit vs unbatched):\n\
    \  median @ %s: %s vs %s  -> %s\n\
    \  peak sustainable: %.0f vs %.0f req/s  -> %s\n"
    (Runner.rate_label top_rate) (Table.ms g_top.median) (Table.ms u_top.median)
    (if median_ok then "OK (lower with group commit)" else "FAIL")
    g_peak u_peak
    (if peak_ok then "OK (higher with group commit)" else "FAIL");
  measurements_of "singleton" single_cells
  @ measurements_of "repl" repl_cells
  @ [
      ("batch.repl.unbatched.peak_rps", u_peak);
      ("batch.repl.group-commit.peak_rps", g_peak);
      ("batch.accept.median", if median_ok then 1.0 else 0.0);
      ("batch.accept.peak", if peak_ok then 1.0 else 0.0);
    ]
