(* The four workloads of the benchmark. Each is an open-loop Poisson
   arrival stream from the five user sites against one deployment, plus a
   shorter fault-free rate ladder over the same inputs. Every input —
   seed data and request stream — is generated here from the run's seed;
   the program under test only ever sees the generated inputs. *)

open Fdsl.Ast
open Apps.Appdsl
module Framework = Radical.Framework
module Server = Radical.Server

(* Which latencies the ladder's SLO constrains. *)
type slo_on = Reads | All_requests

(* A leader crash of the replicated lock cluster: at [crash_at] virtual
   ms into the main run's arrival window, restarted [down_for] later. *)
type fault = { crash_at : float; down_for : float }

type t = {
  name : string;
  funcs : func list;
  schema : Fdsl.Typecheck.schema option;
  data : Sim.Rng.t -> (string * Dval.t) list;
  gen : unit -> Sim.Rng.t -> string * Dval.t list;
      (* A fresh request generator; each call of the result draws one
         (function, arguments) pair from the given stream. *)
  config : Framework.config;
  warmup : float; (* virtual ms between deployment and first arrival *)
  rate : float; (* main run, requests per virtual second *)
  duration : float; (* main run arrival window, virtual ms *)
  fault : fault option;
  ladder : float list; (* ascending offered rates *)
  ladder_duration : float;
  slo_on : slo_on;
  slo_pct : float; (* the percentile the SLO limits *)
  slo_ms : float;
  conserved : (string * int) option;
      (* A key family whose integer values must keep this sum. *)
}

(* --- geo-social ------------------------------------------------------- *)

let geo_social =
  let n_users = 1000 in
  {
    name = "geo-social";
    funcs = Apps.Social.functions;
    schema = Some Apps.Social.schema;
    data = (fun rng -> Apps.Social.seed ~n_users rng);
    (* Follow targets are drawn uniformly. With zipf targets the hottest
       users collect about 200 followers over the run, each of their
       posts then locks that many timelines, and the tail keeps growing
       with time and with which users the seed makes hot. *)
    gen =
      (fun () ->
        let g = Apps.Social.gen ~n_users ~zipf_theta:0.99 () in
        fun rng ->
          match Apps.Social.next g rng with
          | "social-follow", [ u; _ ] ->
              ( "social-follow",
                [ u; Dval.Str (Printf.sprintf "u%d" (Sim.Rng.int rng n_users)) ] )
          | call -> call);
    config = Framework.default_config;
    warmup = 0.0;
    rate = 100.0;
    duration = 3_000_000.0;
    fault = None;
    ladder = [ 300.0; 900.0; 2700.0 ];
    ladder_duration = 30_000.0;
    slo_on = Reads;
    slo_pct = 0.99;
    slo_ms = 315.0;
    conserved = None;
  }

(* --- forum-contended -------------------------------------------------- *)

let forum_contended =
  let n_users = 500 and n_posts = 2000 in
  {
    name = "forum-contended";
    funcs = Apps.Forum.functions;
    schema = Some Apps.Forum.schema;
    data = (fun rng -> Apps.Forum.seed ~n_users ~n_posts rng);
    gen =
      (fun () ->
        let g = Apps.Forum.gen ~n_users ~n_posts ~zipf_theta:0.99 () in
        Apps.Forum.next g);
    config = Framework.default_config;
    warmup = 0.0;
    rate = 100.0;
    duration = 2_000_000.0;
    fault = None;
    ladder = [ 50.0; 100.0; 200.0 ];
    ladder_duration = 300_000.0;
    slo_on = Reads;
    slo_pct = 0.99;
    slo_ms = 750.0;
    conserved = None;
  }

(* --- leased-catalog ----------------------------------------------------

   A small catalog read with zipf(0.99) popularity and updated uniformly,
   under read leases: a validated read earns its site a lease, later
   reads of a leased item never leave the site, and every update must
   settle the outstanding leases on its item first. *)

let n_items = 16

let get_item =
  fn "get_item" [ "k" ] (Compute (0.5, Read (key "item:" (Input "k"))))

let compare_items =
  fn "compare_items" [ "a"; "b" ]
    (Compute
       ( 0.5,
         fields
           [
             ("a", Read (key "item:" (Input "a")));
             ("b", Read (key "item:" (Input "b")));
           ] ))

let update_item =
  fn "update_item" [ "k"; "v" ]
    (Compute
       ( 1.0,
         Let
           ( "cur",
             Read (key "item:" (Input "k")),
             Seq [ Write (key "item:" (Input "k"), Input "v"); Var "cur" ] ) ))

let catalog_gen () =
  let zipf = Workload.Zipf.create ~n:n_items ~theta:0.99 in
  let mix =
    Workload.Mix.read_heavy ~read_share:0.95
      ~reads:[ `Get; `Get; `Get; `Compare ]
      ~writes:[ `Update ] ()
  in
  let seq = ref 0 in
  fun rng ->
    let item () =
      Dval.Str (Printf.sprintf "i%d" (Workload.Zipf.sample zipf rng))
    in
    incr seq;
    match Workload.Mix.sample mix rng with
    | `Get -> ("get_item", [ item () ])
    | `Compare -> ("compare_items", [ item (); item () ])
    | `Update ->
        ( "update_item",
          [
            Dval.Str (Printf.sprintf "i%d" (Sim.Rng.int rng n_items));
            Dval.Str (Printf.sprintf "v%d" !seq);
          ] )

let leased_catalog =
  {
    name = "leased-catalog";
    funcs = [ get_item; compare_items; update_item ];
    schema = None;
    data =
      (fun _ ->
        List.init n_items (fun i -> (Printf.sprintf "item:i%d" i, Dval.Str "v0")));
    gen = catalog_gen;
    config =
      {
        Framework.default_config with
        server = { Server.default_config with leases = Server.default_leases };
      };
    warmup = 0.0;
    rate = 100.0;
    duration = 3_000_000.0;
    fault = None;
    ladder = [ 100.0; 200.0; 400.0 ];
    ladder_duration = 120_000.0;
    slo_on = Reads;
    slo_pct = 0.99;
    slo_ms = 365.0;
    conserved = None;
  }

(* --- raft-failover -----------------------------------------------------

   Payments between lightly skewed accounts, wall posts and wall reads
   against the Raft-replicated LVI server with group commit, batched
   lock persistence, conflict-aware admission and followup coalescing.
   Payments conserve money, so the balances must still sum to
   [total_balance] after the lock-cluster leader crashes mid-run. *)

let n_accounts = 500

let n_walls = 50

let opening_balance = 100

let total_balance = n_accounts * opening_balance

let pay =
  fn "pay" [ "src"; "dst" ]
    (Compute
       ( 1.0,
         Let
           ( "s",
             Read (key "bal:" (Input "src")),
             Let
               ( "d",
                 Read (key "bal:" (Input "dst")),
                 Seq
                   [
                     Write (key "bal:" (Input "src"), Var "s" -: int 1);
                     Write (key "bal:" (Input "dst"), Var "d" +: int 1);
                     Var "d";
                   ] ) ) ))

let post =
  fn "post" [ "w"; "txt" ]
    (Compute
       ( 1.0,
         Let
           ( "cur",
             Read (key "wall:" (Input "w")),
             Seq
               [
                 Write
                   ( key "wall:" (Input "w"),
                     Concat [ Var "cur"; Str "|"; Input "txt" ] );
                 Var "cur";
               ] ) ))

let read_wall = fn "read_wall" [ "w" ] (Compute (0.5, Read (key "wall:" (Input "w"))))

let payments_gen () =
  let zipf = Workload.Zipf.create ~n:n_accounts ~theta:0.2 in
  let mix = Workload.Mix.create [ (`Pay, 0.45); (`Post, 0.20); (`Read, 0.35) ] in
  let wall rng = Dval.Str (Printf.sprintf "w%d" (Sim.Rng.int rng n_walls)) in
  fun rng ->
    match Workload.Mix.sample mix rng with
    | `Pay ->
        let src = Workload.Zipf.sample zipf rng in
        let dst = (src + 1 + Sim.Rng.int rng (n_accounts - 1)) mod n_accounts in
        ( "pay",
          [
            Dval.Str (Printf.sprintf "a%d" src); Dval.Str (Printf.sprintf "a%d" dst);
          ] )
    | `Post -> ("post", [ wall rng; Dval.Str "x" ])
    | `Read -> ("read_wall", [ wall rng ])

let raft_failover =
  {
    name = "raft-failover";
    funcs = [ pay; post; read_wall ];
    schema = None;
    data =
      (fun _ ->
        List.init n_accounts (fun i ->
            (Printf.sprintf "bal:a%d" i, Dval.int opening_balance))
        @ List.init n_walls (fun i -> (Printf.sprintf "wall:w%d" i, Dval.Str "")));
    gen = payments_gen;
    config =
      {
        Framework.default_config with
        server =
          {
            Server.default_config with
            mode = Server.Replicated { az_rtt = 1.5 };
            batching = { Server.full_batching with append_cost = 1.0 };
          };
        fu_window = 2.0;
        fu_piggyback = true;
      };
    warmup = 800.0;
    rate = 1600.0;
    duration = 90_000.0;
    fault = Some { crash_at = 45_000.0; down_for = 2_000.0 };
    ladder = [ 800.0; 1600.0; 3200.0 ];
    ladder_duration = 10_000.0;
    (* At these rates the p99 is the farthest site's round trip and
       barely moves with load (1600 to 3200 req/s: +9%, about the spread
       between seeds); the queueing at admission and in the Raft log
       shows in the body of the distribution, whose median rises 7%
       while varying 1% between seeds. *)
    slo_on = All_requests;
    slo_pct = 0.5;
    slo_ms = 133.0;
    conserved = Some ("bal:", total_balance);
  }

let all = [ geo_social; forum_contended; leased_catalog; raft_failover ]

let slo_name w =
  Printf.sprintf "%s p%g <= %g ms"
    (match w.slo_on with Reads -> "read" | All_requests -> "all-request")
    (100.0 *. w.slo_pct) w.slo_ms

let names = List.map (fun w -> w.name) all

let find name = List.find_opt (fun w -> w.name = name) all

(* The smoke variant: 1/100 of the main run and the two lowest ladder
   rungs at 1/100 of their duration. The fault schedule is scaled too, so
   the crash still lands mid-run. *)
let smoke w =
  let scale = 0.01 in
  let take2 = function a :: b :: _ -> [ a; b ] | l -> l in
  {
    w with
    duration = w.duration *. scale;
    ladder = take2 w.ladder;
    ladder_duration = w.ladder_duration *. scale;
    fault =
      Option.map
        (fun f -> { crash_at = f.crash_at *. scale; down_for = f.down_for *. scale })
        w.fault;
  }
