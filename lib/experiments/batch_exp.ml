open Sim
module Location = Net.Location
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

(* --- synthetic mixed workload ----------------------------------------

   Three key families so conflict-aware admission has something to
   tell apart: payments touch "bal:*" (read-modify-write on two
   accounts), wall posts touch "wall:*" (read-modify-write on one
   wall), wall reads are write-free and ride the ro_fast path. Account
   choice is lightly skewed (theta 0.2) so lock contention exists but
   never dominates the Raft append device we are sweeping. *)

let n_accounts = 500
let n_walls = 50

let key prefix input = Fdsl.Ast.(Concat [ Str prefix; Input input ])

let pay_fn =
  let open Fdsl.Ast in
  {
    fn_name = "pay";
    params = [ "src"; "dst" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "s",
              Read (key "bal:" "src"),
              Let
                ( "d",
                  Read (key "bal:" "dst"),
                  Seq
                    [
                      Write (key "bal:" "src", Binop (Sub, Var "s", Int 1L));
                      Write (key "bal:" "dst", Binop (Add, Var "d", Int 1L));
                      Var "d";
                    ] ) ) );
  }

let post_fn =
  let open Fdsl.Ast in
  {
    fn_name = "post";
    params = [ "w"; "txt" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "cur",
              Read (key "wall:" "w"),
              Seq
                [
                  Write (key "wall:" "w", Concat [ Var "cur"; Str "|"; Input "txt" ]);
                  Var "cur";
                ] ) );
  }

let read_wall_fn =
  let open Fdsl.Ast in
  {
    fn_name = "read_wall";
    params = [ "w" ];
    body = Compute (0.5, Read (key "wall:" "w"));
  }

let funcs = [ pay_fn; post_fn; read_wall_fn ]

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
  c_offered : float; (* requests per virtual second *)
  c_achieved : float; (* completions / time-to-last-completion *)
  c_median : float;
  c_p99 : float;
  c_requests : int;
  c_errors : int;
  c_batch_mean : float; (* raft_entry commands per entry; nan singleton *)
  c_queue_p99 : float; (* raft_entry proposal queueing delay; nan singleton *)
}

let run_cell ?(seed = 42) ~variant ~rate ~duration () =
  let engine = Engine.create ~seed () in
  let out = ref None in
  Engine.run engine (fun () ->
      let rng = Engine.rng () in
      let net =
        Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split rng) ()
      in
      let tracer = Tracer.create () in
      let config = variant.v_config in
      let fw = Framework.create ~config ~tracer ~net ~funcs ~data:seed_data () in
      (match config.server.mode with
      | Server.Replicated _ -> Engine.sleep 800.0 (* raft warm-up *)
      | Server.Singleton -> ());
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let zipf = Workload.Zipf.create ~n:n_accounts ~theta:0.2 in
      let mix =
        Workload.Mix.create [ (`Pay, 0.45); (`Post, 0.20); (`Read, 0.35) ]
      in
      let wrng = Rng.split rng in
      let lat = Stats.create () in
      let errors = ref 0 in
      let t0 = Engine.now () in
      let t_last = ref t0 in
      let n =
        Workload.Driver.run_open ~rate ~duration ~rng:(Rng.split rng)
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
            let o = Framework.invoke fw ~from fn args in
            if Result.is_error o.Radical.Runtime.value then incr errors;
            Stats.add lat o.latency;
            t_last := Float.max !t_last (Engine.now ()))
      in
      Framework.stop fw;
      let elapsed_s = Float.max 1e-9 ((!t_last -. t0) /. 1000.0) in
      let hist label =
        (List.assoc_opt label (Tracer.batch_stats tracer),
         List.assoc_opt label (Tracer.queue_stats tracer))
      in
      let batch_mean, queue_p99 =
        match config.server.mode with
        | Server.Singleton -> (nan, nan)
        | Server.Replicated _ -> (
            match hist "raft_entry" with
            | Some b, Some q -> (Stats.mean b, Stats.p99 q)
            | Some b, None -> (Stats.mean b, nan)
            | _ -> (nan, nan))
      in
      out :=
        Some
          {
            c_variant = variant.v_name;
            c_offered = rate;
            c_achieved = float_of_int n /. elapsed_s;
            c_median = Stats.median lat;
            c_p99 = Stats.p99 lat;
            c_requests = n;
            c_errors = !errors;
            c_batch_mean = batch_mean;
            c_queue_p99 = queue_p99;
          });
  match !out with Some c -> c | None -> assert false

(* --- the sweep -------------------------------------------------------- *)

let rate_label r = Printf.sprintf "%.0f/s" r

(* Highest offered rate before the latency knee: a cell is sustainable
   while its median stays within 2x the variant's own lowest-rate
   median (the classic saturation criterion — queueing delay, not the
   raw latency floor, is what blows up past the knee). 0 when even the
   lowest rate has collapsed. *)
let peak_sustainable cells =
  match cells with
  | [] -> 0.0
  | first :: _ ->
      let base = first.c_median in
      List.fold_left
        (fun acc c ->
          if c.c_median <= 2.0 *. base then Float.max acc c.c_offered else acc)
        0.0 cells

let print_cells mode_name cells =
  Table.print
    ~header:
      [
        "variant"; "offered"; "achieved"; "median"; "p99"; "req"; "err";
        "cmds/entry"; "append q p99";
      ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.c_variant;
             rate_label c.c_offered;
             Printf.sprintf "%.0f/s" c.c_achieved;
             Table.ms c.c_median;
             Table.ms c.c_p99;
             string_of_int c.c_requests;
             string_of_int c.c_errors;
             (if Float.is_nan c.c_batch_mean then "-"
              else Printf.sprintf "%.1f" c.c_batch_mean);
             (if Float.is_nan c.c_queue_p99 then "-"
              else Table.ms c.c_queue_p99);
           ])
         cells);
  ignore mode_name

let measurements_of prefix cells =
  List.concat_map
    (fun c ->
      let p =
        Printf.sprintf "batch.%s.%s.r%.0f" prefix c.c_variant c.c_offered
      in
      [
        (p ^ ".median_ms", c.c_median);
        (p ^ ".p99_ms", c.c_p99);
        (p ^ ".achieved_rps", c.c_achieved);
      ])
    cells

let run ?(scale = 1.0) ?(seed = 42) () =
  heading
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
            run_cell ~seed ~variant:v ~rate ~duration ())
          single_rates)
      singleton_variants
  in
  print_cells "singleton" single_cells;

  Printf.printf "\n-- replicated server (az_rtt 1.5 ms, append %.1f ms) --\n"
    append_cost;
  let repl_cells =
    List.concat_map
      (fun v ->
        List.map
          (fun rate ->
            run_cell ~seed ~variant:v ~rate ~duration ())
          repl_rates)
      replicated_variants
  in
  print_cells "replicated" repl_cells;

  let cells_of name =
    List.filter (fun c -> c.c_variant = name) repl_cells
  in
  let unbatched = cells_of "unbatched" in
  let gc = cells_of "group-commit" in
  let top_rate = List.fold_left (fun a r -> Float.max a r) 0.0 repl_rates in
  let at_top cells =
    List.find (fun c -> c.c_offered = top_rate) cells
  in
  let u_top = at_top unbatched and g_top = at_top gc in
  let u_peak = peak_sustainable unbatched
  and g_peak = peak_sustainable gc in
  Printf.printf
    "\npeak sustainable throughput (highest offered rate with median\n\
     within 2x the variant's lowest-rate median):\n";
  List.iter
    (fun v ->
      Printf.printf "  %-14s %.0f req/s\n" v.v_name
        (peak_sustainable (cells_of v.v_name)))
    replicated_variants;
  let median_ok = g_top.c_median < u_top.c_median in
  let peak_ok = g_peak > u_peak in
  Printf.printf
    "\nacceptance (replicated, group commit vs unbatched):\n\
    \  median @ %s: %s vs %s  -> %s\n\
    \  peak sustainable: %.0f vs %.0f req/s  -> %s\n"
    (rate_label top_rate) (Table.ms g_top.c_median) (Table.ms u_top.c_median)
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
