open Sim
module Stats = Metrics.Stats
module Table = Metrics.Table
module Framework = Radical.Framework
module Server = Radical.Server
module Runtime = Radical.Runtime


(* --- read-heavy zipf catalog ------------------------------------------

   A pool of items read with zipf(0.99) popularity — the hottest items
   absorb most of the traffic, which is exactly where leases pay: the
   first validated read of an item from a site earns a lease, and every
   later read of it there is served locally until a writer settles the
   grant. Updates pick their victim uniformly: the 95/5 read/write mix
   (Mix.read_heavy) plus the spread-out write churn keeps every item
   leased at every site most of the time, the way a read-mostly
   catalog behaves. *)

let n_items = 16

let key = Synthetic.key

(* Statically read-only, single key: the lease-local candidate. *)
let get_item_fn =
  let open Fdsl.Ast in
  {
    fn_name = "get_item";
    params = [ "k" ];
    body = Compute (0.5, Read (key "item:" "k"));
  }

(* Statically read-only over two keys: local only when BOTH are
   covered — exercises full-coverage gating. *)
let compare_fn =
  let open Fdsl.Ast in
  {
    fn_name = "compare_items";
    params = [ "a"; "b" ];
    body =
      Compute
        ( 0.5,
          Let
            ( "x",
              Read (key "item:" "a"),
              Let
                ( "y",
                  Read (key "item:" "b"),
                  Record_lit [ ("a", Var "x"); ("b", Var "y") ] ) ) );
  }

(* The writer: read-modify-write on one item — must settle outstanding
   leases before its write validates. *)
let update_fn =
  let open Fdsl.Ast in
  {
    fn_name = "update_item";
    params = [ "k"; "v" ];
    body =
      Compute
        ( 1.0,
          Let
            ( "cur",
              Read (key "item:" "k"),
              Seq [ Write (key "item:" "k", Input "v"); Var "cur" ] ) );
  }

let funcs = [ get_item_fn; compare_fn; update_fn ]

let read_fns = [ get_item_fn.fn_name; compare_fn.fn_name ]

let seed_data =
  List.init n_items (fun i -> (Printf.sprintf "item:i%d" i, Dval.Str "v0"))

(* --- variants --------------------------------------------------------- *)

type variant = { v_name : string; v_leases : Server.leases }

let variants =
  [
    { v_name = "off"; v_leases = Server.no_leases };
    { v_name = "on"; v_leases = Server.default_leases };
    {
      v_name = "on/expiry";
      (* Revocation off: writers always wait out expiry + ε. Reads are
         just as local; the cost shows up on the write path. *)
      v_leases = { Server.default_leases with revoke = false };
    };
  ]

(* --- one cell --------------------------------------------------------- *)

type cell = {
  c_variant : string;
  c_ro_median : float; (* read-only functions only — the headline *)
  c_ro_p99 : float;
  c_w_median : float; (* the writer pays for the settles *)
  c_median : float; (* whole mix *)
  c_local : int; (* invocations served on the lease-local path *)
  c_ro_requests : int;
  c_requests : int;
  c_errors : int;
  c_grants : int;
  c_revokes : int;
  c_expiry_waits : int;
  c_blocked_writes : int;
}

let run_cell ~seed ~variant ~clients_per_loc ~requests_per_client =
  let config =
    {
      Framework.default_config with
      server = { Server.default_config with leases = variant.v_leases };
    }
  in
  Runner.simulate ~seed ~jitter:0.05 ~tracer:Metrics.Tracer.noop
    ~locations:Net.Location.user_locations (Runner.Radical_with config) ~funcs
    ~schema:[]
    ~data:(fun _ -> seed_data)
    (fun d rng ->
      let fw = Runner.framework d in
      let sites = Framework.locations fw in
      let n_sites = List.length sites in
      let zipf = Workload.Zipf.create ~n:n_items ~theta:0.99 in
      let ro_lat = Stats.create () in
      let w_lat = Stats.create () in
      let all_lat = Stats.create () in
      let errors = ref 0 in
      let local = ref 0 in
      let ro_requests = ref 0 in
      let requests = ref 0 in
      let n_clients = n_sites * clients_per_loc in
      let client_rngs = Array.init n_clients (fun _ -> Rng.split rng) in
      (* get_item dominates compare_items 3:1 inside the 95% read
         share; compare needs BOTH its keys covered to stay local. *)
      let mix =
        Workload.Mix.read_heavy
          ~reads:[ `Get; `Get; `Get; `Compare ]
          ~writes:[ `Update ] ()
      in
      Workload.Driver.run_clients ~n:n_clients ~iterations:requests_per_client
        ~think_time:100.0 (fun ~client ~iter ->
          let from = List.nth sites (client mod n_sites) in
          let crng = client_rngs.(client) in
          let item () =
            Dval.Str (Printf.sprintf "i%d" (Workload.Zipf.sample zipf crng))
          in
          let fn, args =
            match Workload.Mix.sample mix crng with
            | `Get -> ("get_item", [ item () ])
            | `Compare -> ("compare_items", [ item (); item () ])
            | `Update ->
                (* Uniform victim: update churn spreads over the pool
                   instead of hammering the zipf head. *)
                ( "update_item",
                  [
                    Dval.Str (Printf.sprintf "i%d" (Rng.int crng n_items));
                    Dval.Str (Printf.sprintf "v%d-%d" client iter);
                  ] )
          in
          incr requests;
          let o = Framework.invoke fw ~from fn args in
          if Result.is_error o.Runtime.value then incr errors;
          if o.path = Runtime.Local then incr local;
          Stats.add all_lat o.latency;
          if List.mem fn read_fns then begin
            incr ro_requests;
            Stats.add ro_lat o.latency
          end
          else Stats.add w_lat o.latency);
      (* Let straggler followups commit and their settles conclude. *)
      Engine.sleep 1000.0;
      let srv = Server.stats (Framework.server fw) in
      {
        c_variant = variant.v_name;
        c_ro_median = Stats.median ro_lat;
        c_ro_p99 = Stats.p99 ro_lat;
        c_w_median = Stats.median w_lat;
        c_median = Stats.median all_lat;
        c_local = !local;
        c_ro_requests = !ro_requests;
        c_requests = !requests;
        c_errors = !errors;
        c_grants = srv.lease_grants;
        c_revokes = srv.lease_revokes;
        c_expiry_waits = srv.lease_expiry_waits;
        c_blocked_writes = srv.lease_blocked_writes;
      })

(* --- the experiment --------------------------------------------------- *)

let print_cells cells =
  Table.print
    ~header:
      [
        "leases"; "ro median"; "ro p99"; "write med"; "mix med"; "local";
        "ro req"; "req"; "err"; "grants"; "revokes"; "waits"; "blocked";
      ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.c_variant;
             Table.ms c.c_ro_median;
             Table.ms c.c_ro_p99;
             Table.ms c.c_w_median;
             Table.ms c.c_median;
             string_of_int c.c_local;
             string_of_int c.c_ro_requests;
             string_of_int c.c_requests;
             string_of_int c.c_errors;
             string_of_int c.c_grants;
             string_of_int c.c_revokes;
             string_of_int c.c_expiry_waits;
             string_of_int c.c_blocked_writes;
           ])
         cells)

let measurements_of cells =
  List.concat_map
    (fun c ->
      let p = "lease." ^ c.c_variant in
      [
        (p ^ ".ro_median_ms", c.c_ro_median);
        (p ^ ".ro_p99_ms", c.c_ro_p99);
        (p ^ ".write_median_ms", c.c_w_median);
        (p ^ ".mix_median_ms", c.c_median);
        ( p ^ ".local_rate",
          if c.c_ro_requests = 0 then 0.0
          else float_of_int c.c_local /. float_of_int c.c_ro_requests );
        (p ^ ".grants", float_of_int c.c_grants);
        (p ^ ".revokes", float_of_int c.c_revokes);
        (p ^ ".expiry_waits", float_of_int c.c_expiry_waits);
        (p ^ ".blocked_writes", float_of_int c.c_blocked_writes);
        (p ^ ".errors", float_of_int c.c_errors);
      ])
    cells

let run ?(scale = 1.0) ?(seed = 42) () =
  Runner.heading
    "Read leases — read-heavy zipf mix, read-only median latency with\n\
     leases off / on (revocation) / on (expiry-wait only)";
  let clients_per_loc = 3 in
  let requests_per_client = Stdlib.max 10 (int_of_float (30.0 *. scale)) in
  Printf.printf
    "5 sites x %d clients x %d requests, 95%% reads (get 3:1 compare) /\n\
     5%% updates over %d items (zipf(0.99) reads, uniform updates),\n\
     100 ms think time. A validated read earns its site a per-key\n\
     lease; while every read key of a statically read-only function is\n\
     covered, the invocation never leaves the site.\n"
    clients_per_loc requests_per_client n_items;
  let cells =
    List.map
      (fun v ->
        run_cell ~seed ~variant:v ~clients_per_loc ~requests_per_client)
      variants
  in
  print_cells cells;
  let cell name = List.find (fun c -> c.c_variant = name) cells in
  let off = cell "off" and on = cell "on" in
  let reduction =
    if off.c_ro_median > 0.0 then
      1.0 -. (on.c_ro_median /. off.c_ro_median)
    else 0.0
  in
  let median_ok = reduction >= 0.40 in
  let sound = on.c_errors = 0 && off.c_errors = 0 in
  Printf.printf
    "\nnotes: 'local' counts invocations that never left their site\n\
     (zero LVI round trips); 'blocked' counts writes that found\n\
     outstanding grants and settled them first — by revocation RPCs\n\
     ('revokes') or by waiting out expiry + eps ('waits'). The\n\
     expiry-only variant shows the same read-side win with the write\n\
     path paying full lease terms instead of one revocation RTT.\n";
  Printf.printf
    "\nacceptance (on vs off):\n\
    \  read-only median: %s vs %s  -> %.0f%% reduction, %s\n\
    \  errors: %d+%d  -> %s\n"
    (Table.ms on.c_ro_median) (Table.ms off.c_ro_median) (100.0 *. reduction)
    (if median_ok then "OK (>= 40%)" else "FAIL (< 40%)")
    on.c_errors off.c_errors
    (if sound then "OK" else "FAIL");
  measurements_of cells
  @ [
      ("lease.accept.ro_median_reduction", reduction);
      ("lease.accept.median", if median_ok then 1.0 else 0.0);
      ("lease.accept.no_errors", if sound then 1.0 else 0.0);
    ]
