(* Tests for the extension features: external services with at-most-once
   semantics (§3.5), developer-provided f^rw (§7), persistent caches
   (§3.2 extension), multi-app deployments, and LVI-server failover. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Extsvc = Radical.Extsvc
module Kv = Store.Kv

let run_sim ?(seed = 5) f =
  let e = Engine.create ~seed () in
  Engine.run e f

let check_dval msg expected got =
  Alcotest.(check string) msg (Dval.to_string expected) (Dval.to_string got)

let ok_value (o : Runtime.outcome) =
  match o.value with
  | Ok v -> v
  | Error e -> Alcotest.fail ("execution failed: " ^ e)

(* A checkout handler: reads the cart, charges a payment provider,
   records the receipt. The payment must happen at most once per request
   no matter how many times the function executes. *)
let checkout_fn =
  {
    fn_name = "checkout";
    params = [ "user" ];
    body =
      Let
        ( "cart",
          Read (Concat [ Str "cart:"; Input "user" ]),
          Compute
            ( 30.0,
              Let
                ( "receipt",
                  External ("payments", Var "cart"),
                  Seq
                    [
                      Write (Concat [ Str "receipt:"; Input "user" ], Var "receipt");
                      Var "receipt";
                    ] ) ) );
  }

let data = [ ("cart:alice", Dval.Str "cart-contents"); ("x", Dval.int 0) ]

let with_checkout ?seed f =
  run_sim ?seed (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ~net ~funcs:[ checkout_fn ] ~data () in
      Framework.register_external fw ~name:"payments" (fun payload ->
          Dval.Record [ ("paid", payload); ("status", Dval.Str "ok") ]);
      f net fw;
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* External services                                                    *)

let test_external_call_speculative_path () =
  with_checkout (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "checkout" [ Dval.Str "alice" ] in
      check_dval "receipt returned"
        (Dval.Record
           [ ("paid", Dval.Str "cart-contents"); ("status", Dval.Str "ok") ])
        (ok_value o);
      Engine.sleep 2000.0;
      let ext = Framework.external_services fw in
      Alcotest.(check int) "provider charged once" 1
        (Extsvc.handler_runs ext "payments");
      (match Kv.peek (Framework.primary fw) "receipt:alice" with
      | Some _ -> ()
      | None -> Alcotest.fail "receipt not persisted"))

let test_external_at_most_once_under_reexecution () =
  with_checkout (fun net fw ->
      (* Drop the followup: the function runs twice (speculation, then
         deterministic re-execution) — the provider must still charge
         exactly once because both executions derive the same
         idempotency keys. *)
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if label = "followup" then Transport.Drop else Transport.Deliver)
          : int);
      let _ = Framework.invoke fw ~from:Location.ca "checkout" [ Dval.Str "alice" ] in
      Engine.sleep 3000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "re-execution happened" 1 st.reexecutions;
      let ext = Framework.external_services fw in
      Alcotest.(check int) "two call attempts" 2 (Extsvc.requests ext "payments");
      Alcotest.(check int) "but charged once" 1
        (Extsvc.handler_runs ext "payments"))

let test_external_at_most_once_on_validation_failure () =
  with_checkout (fun _ fw ->
      (* Make CA's cache stale so checkout speculates AND runs as backup:
         both executions call the provider; dedupe keeps it at one. *)
      let rt = Framework.runtime fw Location.ca in
      Cache.update (Runtime.cache rt) "cart:alice" (Dval.Str "stale") ~version:99;
      let o = Framework.invoke fw ~from:Location.ca "checkout" [ Dval.Str "alice" ] in
      Alcotest.(check bool) "took the backup path" true
        (o.path = Runtime.Backup);
      Engine.sleep 2000.0;
      let ext = Framework.external_services fw in
      Alcotest.(check bool) "both executions attempted" true
        (Extsvc.requests ext "payments" >= 2);
      Alcotest.(check int) "charged once" 1 (Extsvc.handler_runs ext "payments"))

let test_external_unknown_service_errors () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ~net ~funcs:[ checkout_fn ] ~data () in
      (* No provider registered. *)
      let o = Framework.invoke fw ~from:Location.ca "checkout" [ Dval.Str "alice" ] in
      (match o.value with
      | Error e ->
          Alcotest.(check bool) "mentions the service" true
            (String.length e > 0)
      | Ok v -> Alcotest.fail ("expected error, got " ^ Dval.to_string v));
      Framework.stop fw)

let test_external_result_cannot_feed_keys () =
  (* A storage key computed from a provider response is unpredictable:
     the analyzer must refuse to derive f^rw. *)
  let bad =
    {
      fn_name = "bad-routing";
      params = [];
      body = Read (External ("router", Str "which-shard?"));
    }
  in
  match Analyzer.Derive.derive bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unanalyzable"

let test_external_compiles_and_validates () =
  let m = Fdsl.Compile.compile checkout_fn in
  (match Wasm.Validate.check m with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wasm.Validate.pp_error e));
  Alcotest.(check bool) "external.call imported" true
    (List.mem "external.call" m.imports)

(* ------------------------------------------------------------------ *)
(* Manual f^rw (§7)                                                     *)

(* The key computation hides behind an analysis barrier, but the
   developer knows it: reads "profile:<u>", writes "seen:<u>". *)
let opaque_profile =
  {
    fn_name = "opaque-profile";
    params = [ "u" ];
    body =
      Compute
        ( 60.0,
          Seq
            [
              Write (Opaque (Concat [ Str "seen:"; Input "u" ]), Bool true);
              Read (Opaque (Concat [ Str "profile:"; Input "u" ]));
            ] );
  }

let manual_rw =
  {
    fn_name = "opaque-profile^rw";
    params = [ "u" ];
    body =
      Seq
        [
          Declare (Decl_write, Concat [ Str "seen:"; Input "u" ]);
          Declare (Decl_read, Concat [ Str "profile:"; Input "u" ]);
        ];
  }

let test_manual_rw_registration () =
  run_sim (fun () ->
      (* Automatic analysis fails... *)
      (match Analyzer.Derive.derive opaque_profile with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected unanalyzable");
      (* ...but manual registration restores the speculative path. *)
      let reg = Radical.Registry.create () in
      (match Radical.Registry.register_manual reg opaque_profile ~rw_func:manual_rw with
      | Ok entry ->
          Alcotest.(check bool) "has derived" true (entry.derived <> None)
      | Error e -> Alcotest.fail e);
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let kv = Kv.create () in
      Kv.load kv [ ("profile:bob", Dval.Str "bob's profile") ];
      let directory = Shard.Directory.hash ~shards:1 in
      let srv =
        Server.create ~net ~registry:reg ~kv ~shard:0 ~directory
          Server.default_config
      in
      let cache = Cache.create () in
      Cache.update cache "profile:bob" (Dval.Str "bob's profile") ~version:1;
      Cache.update cache "seen:bob" Dval.Unit ~version:0;
      let rt =
        Runtime.create ~net ~registry:reg ~cache
          ~router:(Shard.Router.create directory) ~servers:[ srv ]
          {
            loc = Location.de;
            overlap = true;
            ro_fast = true;
            fu_window = 0.0;
            fu_piggyback = false;
          }
      in
      let o = Runtime.invoke rt "opaque-profile" [ Dval.Str "bob" ] in
      Alcotest.(check bool) "speculative via manual f^rw" true
        (o.path = Runtime.Speculative);
      check_dval "value" (Dval.Str "bob's profile") (ok_value o))

let test_manual_rw_param_mismatch () =
  let wrong = { manual_rw with params = [ "u"; "extra" ] } in
  let reg = Radical.Registry.create () in
  match Radical.Registry.register_manual reg opaque_profile ~rw_func:wrong with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parameter mismatch rejection"

(* ------------------------------------------------------------------ *)
(* Persistent caches                                                    *)

let test_cache_snapshot_restore () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let get_fn =
        { fn_name = "get"; params = [ "k" ]; body = Compute (50.0, Read (Input "k")) }
      in
      let fw = Framework.create ~net ~funcs:[ get_fn ] ~data () in
      let rt = Framework.runtime fw Location.jp in
      let o1 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      Alcotest.(check bool) "warm" true (o1.path = Runtime.Speculative);
      (* "Restart": persist, lose the cache, restore — no bootstrap
         penalty, unlike a plain wipe. *)
      let saved = Cache.snapshot (Runtime.cache rt) in
      Cache.wipe (Runtime.cache rt);
      Cache.restore (Runtime.cache rt) saved;
      let o2 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      Alcotest.(check bool) "restored cache still validates" true
        (o2.path = Runtime.Speculative);
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* Multi-app deployment                                                 *)

let test_all_five_apps_in_one_deployment () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let rng = Rng.split (Engine.rng ()) in
      let data =
        Apps.Social.seed ~n_users:30 rng
        @ Apps.Hotel.seed ~n_users:20 rng
        @ Apps.Forum.seed ~n_users:20 ~n_posts:20 rng
        @ Apps.Imageboard.seed ~n_users:20 ~n_images:20 rng
        @ Apps.Projectmgmt.seed ~n_users:20 ~n_projects:5 rng
      in
      let fw =
        Framework.create ~net ~funcs:Apps.Catalog.all_functions ~data ()
      in
      let cases =
        [
          ("social-timeline", [ Dval.Str "u3" ]);
          ("hotel-recommend", [ Dval.Str "c1" ]);
          ("forum-homepage", [ Dval.Str "f1" ]);
          ("ib-view", [ Dval.Str "i3" ]);
          ("pm-board", [ Dval.Str "pr2" ]);
        ]
      in
      List.iteri
        (fun i (fn, args) ->
          let from = List.nth Location.user_locations (i mod 5) in
          let o = Framework.invoke fw ~from fn args in
          match o.value with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (fn ^ ": " ^ e))
        cases;
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* Replicated-server failover                                           *)

let test_lvi_survives_raft_leader_crash () =
  let config =
    {
      Framework.default_config with
      locations = [ Location.ca ];
      server =
        { Server.default_config with mode = Server.Replicated { az_rtt = 1.5 } };
    }
  in
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let put_fn =
        {
          fn_name = "put";
          params = [ "k"; "v" ];
          body = Compute (10.0, Write (Input "k", Input "v"));
        }
      in
      let fw = Framework.create ~config ~net ~funcs:[ put_fn ] ~data () in
      Engine.sleep 1000.0;
      let o1 =
        Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "x"; Dval.int 1 ]
      in
      Alcotest.(check bool) "write before crash ok" true
        (o1.path = Runtime.Speculative);
      (* Kill the lock cluster's leader mid-flight. *)
      let cluster =
        Option.get (Server.raft_cluster (Framework.server fw))
      in
      (match Radical.Raft_locks.leader cluster with
      | Some l -> Radical.Raft_locks.crash cluster l
      | None -> Alcotest.fail "no raft leader");
      Engine.sleep 100.0;
      (* The next LVI request's lock persistence rides out the election. *)
      let o2 =
        Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "x"; Dval.int 2 ]
      in
      Alcotest.(check bool) "write during failover still succeeds" true
        (o2.value = Ok Dval.Unit || Result.is_ok o2.value);
      Engine.sleep 2000.0;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; _ } -> check_dval "final value" (Dval.int 2) value
      | None -> Alcotest.fail "x missing");
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* LVI-server restart recovery                                          *)

let test_server_restart_resolves_orphaned_intents () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let put_fn =
        {
          fn_name = "put";
          params = [ "k"; "v" ];
          body = Compute (10.0, Write (Input "k", Input "v"));
        }
      in
      let fw = Framework.create ~net ~funcs:[ put_fn ] ~data () in
      (* A validated write whose followup crawls: at the moment of the
         crash an intent is pending with locks held. *)
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if label = "followup" then Transport.Delay 5000.0
             else Transport.Deliver)
          : int);
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "crashed" ]
      in
      Alcotest.(check bool) "client was answered" true
        (o.path = Runtime.Speculative);
      let srv = Framework.server fw in
      Alcotest.(check int) "intent pending" 1 (Server.pending_intents srv);
      Alcotest.(check bool) "locks held" true (Server.locks_held srv > 0);
      (* Crash-restart before the intent timer fires: volatile timers are
         gone; recovery resolves the orphan from durable state. *)
      Server.restart_recover srv;
      Engine.sleep 100.0;
      let st = Server.stats srv in
      Alcotest.(check int) "recovery re-executed" 1 st.reexecutions;
      Alcotest.(check int) "no pending intents" 0 (Server.pending_intents srv);
      Alcotest.(check int) "locks released" 0 (Server.locks_held srv);
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; version } ->
          check_dval "write recovered" (Dval.Str "crashed") value;
          Alcotest.(check int) "applied exactly once" 2 version
      | None -> Alcotest.fail "x missing");
      (* The crawling followup eventually arrives — and is discarded. *)
      Engine.sleep 8000.0;
      let st = Server.stats srv in
      Alcotest.(check int) "late followup discarded" 1 st.followups_discarded;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { version; _ } -> Alcotest.(check int) "no double apply" 2 version
      | None -> Alcotest.fail "x missing");
      Framework.stop fw)

let test_server_restart_with_no_intents_is_noop () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ~net ~funcs:[ checkout_fn ] ~data () in
      Framework.register_external fw ~name:"payments" (fun p -> p);
      let srv = Framework.server fw in
      Server.restart_recover srv;
      let o = Framework.invoke fw ~from:Location.ie "checkout" [ Dval.Str "alice" ] in
      Alcotest.(check bool) "server serves after empty recovery" true
        (Result.is_ok o.value);
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* Adaptive intent timers (§3.4)                                      *)

let test_adaptive_timer_recovers_faster_than_ceiling () =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let put_fn =
        {
          fn_name = "put";
          params = [ "k"; "v" ];
          body = Compute (10.0, Write (Input "k", Input "v"));
        }
      in
      let config =
        {
          Framework.default_config with
          server =
            { Server.default_config with intent_timeout = 5000.0 };
        }
      in
      let fw = Framework.create ~config ~net ~funcs:[ put_fn ] ~data:[] () in
      (* Warm up the delay estimate with two healthy writes. *)
      let _ = Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "a"; Dval.int 1 ] in
      Engine.sleep 500.0;
      let _ = Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "a"; Dval.int 2 ] in
      Engine.sleep 500.0;
      (* Now lose a followup: the adaptive timer (~4x the observed ~70 ms
         followup delay) should replay long before the 5 s ceiling. *)
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if label = "followup" then Transport.Drop else Transport.Deliver)
          : int);
      let t0 = Engine.now () in
      let _ = Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "a"; Dval.int 3 ] in
      let rec wait_for_reexec () =
        if (Server.stats (Framework.server fw)).reexecutions > 0 then
          Engine.now () -. t0
        else if Engine.now () -. t0 > 6000.0 then
          Alcotest.fail "re-execution never happened"
        else begin
          Engine.sleep 25.0;
          wait_for_reexec ()
        end
      in
      let elapsed = wait_for_reexec () in
      Alcotest.(check bool)
        (Printf.sprintf "replayed after %.0f ms, far below the 5000 ms ceiling"
           elapsed)
        true (elapsed < 1500.0);
      (* Let the replay finish applying its writes. *)
      Engine.sleep 200.0;
      (match Kv.peek (Framework.primary fw) "a" with
      | Some { value; _ } -> check_dval "write recovered" (Dval.int 3) value
      | None -> Alcotest.fail "a missing");
      Framework.stop fw)

(* ------------------------------------------------------------------ *)
(* Soak: a long mixed run leaves no residue                             *)

let test_soak_no_residue () =
  (* 5,000 social requests with jitter and occasional followup loss:
     at quiescence no locks are held, no intents are pending, the server
     accounted for every request, and primary versions are monotone. *)
  run_sim ~seed:99 (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.05 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let rng = Rng.split (Engine.rng ()) in
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if label = "followup" && Rng.int rng 20 = 0 then Transport.Drop
             else Transport.Deliver)
          : int);
      let data = Apps.Social.seed (Rng.split (Engine.rng ())) in
      let fw = Framework.create ~net ~funcs:Apps.Social.functions ~data () in
      let gen = Apps.Social.gen () in
      let rngs = Array.init 50 (fun _ -> Rng.split (Engine.rng ())) in
      let errors = ref 0 in
      Workload.Driver.run_clients ~n:50 ~iterations:100 ~think_time:50.0
        (fun ~client ~iter:_ ->
          let from = List.nth Location.user_locations (client mod 5) in
          let fn, args = Apps.Social.next gen rngs.(client) in
          let o = Framework.invoke fw ~from fn args in
          if Result.is_error o.value then incr errors);
      (* Let stragglers (followups, intent timers) resolve. *)
      Engine.sleep 10_000.0;
      let srv = Framework.server fw in
      let st = Server.stats srv in
      Alcotest.(check int) "no errors" 0 !errors;
      Alcotest.(check int) "no locks held" 0 (Server.locks_held srv);
      Alcotest.(check int) "no pending intents" 0 (Server.pending_intents srv);
      Alcotest.(check int) "every request accounted" 5000
        (st.validated + st.mismatched + st.direct_executions);
      Alcotest.(check bool) "some followups were lost and replayed" true
        (st.reexecutions > 0);
      Framework.stop fw)

let () =
  Alcotest.run "features"
    [
      ( "external-services",
        [
          Alcotest.test_case "speculative path charges once" `Quick
            test_external_call_speculative_path;
          Alcotest.test_case "at-most-once under re-execution" `Quick
            test_external_at_most_once_under_reexecution;
          Alcotest.test_case "at-most-once on validation failure" `Quick
            test_external_at_most_once_on_validation_failure;
          Alcotest.test_case "unknown service errors" `Quick
            test_external_unknown_service_errors;
          Alcotest.test_case "result cannot feed keys" `Quick
            test_external_result_cannot_feed_keys;
          Alcotest.test_case "compiles and validates" `Quick
            test_external_compiles_and_validates;
        ] );
      ( "manual-frw",
        [
          Alcotest.test_case "registration restores speculation" `Quick
            test_manual_rw_registration;
          Alcotest.test_case "param mismatch rejected" `Quick
            test_manual_rw_param_mismatch;
        ] );
      ( "persistent-cache",
        [ Alcotest.test_case "snapshot/restore" `Quick test_cache_snapshot_restore ] );
      ( "deployment",
        [
          Alcotest.test_case "all five apps together" `Quick
            test_all_five_apps_in_one_deployment;
        ] );
      ( "failover",
        [
          Alcotest.test_case "LVI survives raft leader crash" `Quick
            test_lvi_survives_raft_leader_crash;
          Alcotest.test_case "server restart resolves orphaned intents" `Quick
            test_server_restart_resolves_orphaned_intents;
          Alcotest.test_case "empty recovery is a no-op" `Quick
            test_server_restart_with_no_intents_is_noop;
        ] );
      ( "adaptive-timer",
        [
          Alcotest.test_case "recovers faster than the ceiling" `Quick
            test_adaptive_timer_recovers_faster_than_ceiling;
        ] );
      ( "soak",
        [ Alcotest.test_case "no residue after 5k requests" `Slow test_soak_no_residue ] );
    ]
