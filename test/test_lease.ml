(* Tests for the read-lease subsystem (DESIGN.md §14): the server-side
   lease table and site-side lease cache units, the lease-local serve
   path (zero LVI round trips), the writer-blocked-until-revocation
   regression, the expiry-wait fallback, leases-off seed identity, and
   a 20-seed lease-chaos campaign under the invariant oracles. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Lease = Radical.Lease

(* --- Test functions ------------------------------------------------- *)

let get_fn =
  { fn_name = "get"; params = [ "k" ]; body = Compute (10.0, Read (Input "k")) }

let get2_fn =
  {
    fn_name = "get2";
    params = [ "a"; "b" ];
    body =
      Compute
        ( 10.0,
          Let
            ( "x",
              Read (Input "a"),
              Let
                ( "y",
                  Read (Input "b"),
                  Record_lit [ ("a", Var "x"); ("b", Var "y") ] ) ) );
  }

let put_fn =
  {
    fn_name = "put";
    params = [ "k"; "v" ];
    body = Compute (5.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
  }

let funcs = [ get_fn; get2_fn; put_fn ]

let data = [ ("x", Dval.Str "v1"); ("y", Dval.Str "w1") ]

let lease_config leases =
  {
    Framework.default_config with
    server = { Server.default_config with leases };
  }

let with_radical ?(seed = 11) ?config ?(funcs = funcs) ?(data = data) f =
  let e = Engine.create ~seed () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ?config ~net ~funcs ~data () in
      f net fw;
      Framework.stop fw)

let ok_value (o : Runtime.outcome) =
  match o.value with
  | Ok v -> v
  | Error e -> Alcotest.fail ("execution failed: " ^ e)

let path_name = function
  | Runtime.Speculative -> "speculative"
  | Runtime.Backup -> "backup"
  | Runtime.Fallback -> "fallback"
  | Runtime.Local -> "local"

let check_path msg expected (o : Runtime.outcome) =
  Alcotest.(check string) msg (path_name expected) (path_name o.path)

let check_dval msg expected got =
  Alcotest.(check string) msg (Dval.to_string expected) (Dval.to_string got)

(* --- Server-side lease table (Lease) ---------------------------------- *)

let test_lease_grant_holders_expiry () =
  let t = Lease.create () in
  Lease.grant t ~key:"x" ~site:"CA" ~until:100.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "held before expiry"
    [ ("CA", 100.0) ]
    (Lease.holders t ~now:50.0 [ "x" ]);
  (* Expiry is strict: a grant is dead at exactly [until]. *)
  Alcotest.(check int) "dead at until" 0
    (List.length (Lease.holders t ~now:100.0 [ "x" ]));
  (* Re-grant replaces, never moves the expiry backwards. *)
  Lease.grant t ~key:"x" ~site:"CA" ~until:200.0;
  Lease.grant t ~key:"x" ~site:"CA" ~until:150.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "per-site expiry keeps the max"
    [ ("CA", 200.0) ]
    (Lease.holders t ~now:50.0 [ "x" ]);
  (* A site holding grants on several queried keys reports once, with
     the latest expiry among them. *)
  Lease.grant t ~key:"y" ~site:"CA" ~until:300.0;
  Lease.grant t ~key:"y" ~site:"DE" ~until:250.0;
  let hs =
    List.sort compare (Lease.holders t ~now:50.0 [ "x"; "y" ])
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "max per site across keys"
    [ ("CA", 300.0); ("DE", 250.0) ]
    hs;
  Alcotest.(check int) "live counts unexpired" 3 (Lease.live t ~now:50.0);
  Alcotest.(check int) "granted is cumulative" 5 (Lease.granted t)

(* The settle/forget race guard: forgetting with [until_leq] of the
   settle's snapshot must spare a fresh grant issued after it. *)
let test_lease_forget_until_leq_guard () =
  let t = Lease.create () in
  Lease.grant t ~key:"x" ~site:"CA" ~until:100.0;
  (* A settle snapshots [("CA", 100.0)], then — while it is out
     revoking — a new validated read earns DE a fresh, later grant. *)
  Lease.grant t ~key:"x" ~site:"DE" ~until:200.0;
  Lease.forget t ~until_leq:100.0 [ "x" ];
  Alcotest.(check (list (pair string (float 1e-9))))
    "fresh grant survives the settle's forget"
    [ ("DE", 200.0) ]
    (Lease.holders t ~now:50.0 [ "x" ]);
  Lease.forget t ~until_leq:200.0 [ "x" ];
  Alcotest.(check int) "observed grants are gone" 0
    (List.length (Lease.holders t ~now:50.0 [ "x" ]))

(* --- Site-side lease cache (Cache.Leases) ----------------------------- *)

let test_site_install_valid_covered () =
  let t = Cache.Leases.create () in
  Alcotest.(check bool) "install accepted" true
    (Cache.Leases.install t ~key:"x" ~version:3 ~issued:10.0 ~until:100.0);
  Alcotest.(check bool) "valid at matching version" true
    (Cache.Leases.valid t ~now:50.0 ~key:"x" ~version:3);
  Alcotest.(check bool) "wrong version is not certified" false
    (Cache.Leases.valid t ~now:50.0 ~key:"x" ~version:2);
  Alcotest.(check bool) "dead at until" false
    (Cache.Leases.valid t ~now:100.0 ~key:"x" ~version:3);
  Alcotest.(check bool) "empty read set is never covered" false
    (Cache.Leases.covered t ~now:50.0 []);
  Alcotest.(check bool) "partial coverage is no coverage" false
    (Cache.Leases.covered t ~now:50.0 [ ("x", 3); ("y", 1) ]);
  ignore (Cache.Leases.install t ~key:"y" ~version:1 ~issued:10.0 ~until:100.0);
  Alcotest.(check bool) "full coverage" true
    (Cache.Leases.covered t ~now:50.0 [ ("x", 3); ("y", 1) ]);
  (* A shorter-lived duplicate never replaces a longer-lived grant. *)
  Alcotest.(check bool) "superseded install refused" false
    (Cache.Leases.install t ~key:"x" ~version:3 ~issued:20.0 ~until:90.0)

(* Revocation fences the key: a grant issued at or before the fence —
   in flight while the writer settled — must be refused on arrival. *)
let test_site_drop_fences_inflight_grants () =
  let t = Cache.Leases.create () in
  ignore (Cache.Leases.install t ~key:"x" ~version:1 ~issued:10.0 ~until:500.0);
  Cache.Leases.drop t ~now:60.0 [ "x" ];
  Alcotest.(check bool) "dropped" false
    (Cache.Leases.valid t ~now:61.0 ~key:"x" ~version:1);
  Alcotest.(check bool) "in-flight grant from before the fence refused"
    false
    (Cache.Leases.install t ~key:"x" ~version:1 ~issued:50.0 ~until:600.0);
  Alcotest.(check bool) "grant issued after the fence accepted" true
    (Cache.Leases.install t ~key:"x" ~version:2 ~issued:61.0 ~until:600.0);
  (* Duplicated revocations are idempotent. *)
  Cache.Leases.drop t ~now:70.0 [ "x" ];
  Cache.Leases.drop t ~now:70.0 [ "x" ];
  Alcotest.(check int) "installed counts accepts" 2 (Cache.Leases.installed t);
  Alcotest.(check int) "refused counts fenced + superseded" 1
    (Cache.Leases.refused t);
  Alcotest.(check int) "revoked counts held drops" 2 (Cache.Leases.revoked t);
  Alcotest.(check int) "nothing live" 0 (Cache.Leases.live t ~now:80.0)

(* --- Local serve ------------------------------------------------------- *)

(* The tentpole behaviour: after one validated read earns the lease, the
   next read of the same key never leaves the site. *)
let test_local_serve_zero_round_trips () =
  let config = Radical.Deployment.config [ Leased ] in
  with_radical ~config (fun _ fw ->
      let o1 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "first read pays the LVI trip" Runtime.Speculative o1;
      let srv = Framework.server fw in
      Alcotest.(check bool) "grant recorded at the server" true
        (Server.outstanding_leases srv > 0);
      let before = (Server.stats srv).requests in
      let o2 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "second read is lease-local" Runtime.Local o2;
      check_dval "served value is current" (Dval.Str "v1") (ok_value o2);
      Alcotest.(check int) "zero LVI round trips" before
        (Server.stats srv).requests;
      Alcotest.(check bool) "local is cheaper than the round trip" true
        (o2.latency < o1.latency);
      let st = Runtime.stats (Framework.runtime fw Location.ca) in
      Alcotest.(check int) "lease_local counted" 1 st.lease_local;
      Alcotest.(check bool) "grants installed" true (st.lease_installed > 0);
      (* Multi-key coverage: get2 reads x and y — x is leased, y is
         not, so it still pays the trip; once both are leased it is
         local too. *)
      let o3 =
        Framework.invoke fw ~from:Location.ca "get2"
          [ Dval.Str "x"; Dval.Str "y" ]
      in
      check_path "partial coverage pays the trip" Runtime.Speculative o3;
      let o4 =
        Framework.invoke fw ~from:Location.ca "get2"
          [ Dval.Str "x"; Dval.Str "y" ]
      in
      check_path "full coverage is local" Runtime.Local o4)

(* Leases expire: past the term the site falls back to the LVI trip
   (and earns a fresh grant doing so). *)
let test_lease_expires () =
  with_radical ~config:(lease_config Server.default_leases) (fun _ fw ->
      let _ = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let o2 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "within the term: local" Runtime.Local o2;
      Engine.sleep (Server.lease_duration +. 100.0);
      let o3 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "after expiry: back to the LVI path" Runtime.Speculative o3;
      let o4 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "re-leased" Runtime.Local o4)

(* Off is the seed pipeline: no grants, no table, no local path. *)
let test_leases_off_is_seed_behaviour () =
  with_radical (fun _ fw ->
      let o1 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let o2 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "first read speculative" Runtime.Speculative o1;
      check_path "repeat read still pays the trip" Runtime.Speculative o2;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "no grants" 0 st.lease_grants;
      Alcotest.(check int) "no revokes" 0 st.lease_revokes;
      Alcotest.(check int) "no table entries" 0
        (Server.outstanding_leases (Framework.server fw));
      let rt = Runtime.stats (Framework.runtime fw Location.ca) in
      Alcotest.(check int) "no local serves" 0 rt.lease_local;
      Alcotest.(check int) "no installs" 0 rt.lease_installed)

(* --- Write-path settling ----------------------------------------------- *)

(* Regression: a write to a leased key must settle the grant (revoke and
   wait for the ack) before it validates — and the reader must never
   serve the stale value locally afterwards. *)
let test_writer_blocked_until_revocation () =
  let config = Radical.Deployment.config [ Leased ] in
  with_radical ~config (fun _ fw ->
      let _ = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let o_local =
        Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ]
      in
      check_path "CA reads locally under the lease" Runtime.Local o_local;
      let ow =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      Alcotest.(check bool) "write succeeded" true (Result.is_ok ow.value);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check bool) "write found outstanding grants" true
        (st.lease_blocked_writes >= 1);
      Alcotest.(check bool) "revocation fired" true (st.lease_revokes >= 1);
      let ca = Runtime.stats (Framework.runtime fw Location.ca) in
      Alcotest.(check bool) "CA's grant was revoked" true
        (ca.lease_revoked >= 1);
      (* The revoked reader: never a stale local serve. The cache is
         stale so this read mismatches and repairs — but it must leave
         the site (not Local) and return the new value. *)
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      Alcotest.(check bool) "post-write read leaves the site" true
        (o.path <> Runtime.Local);
      check_dval "post-write read is fresh" (Dval.Str "v2") (ok_value o);
      (* And locality comes back once the repaired read re-leases. *)
      let _ = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let o' = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "re-leased after repair" Runtime.Local o';
      check_dval "local serve of the new value" (Dval.Str "v2") (ok_value o'))

(* Revocation off: the writer waits out the full lease term plus ε
   before its write validates — slower, never unsafe. *)
let test_writer_waits_out_expiry () =
  let leases = { Server.default_leases with revoke = false } in
  with_radical ~config:(lease_config leases) (fun _ fw ->
      let _ = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let ow =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      Alcotest.(check bool) "write succeeded" true (Result.is_ok ow.value);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check bool) "write waited out the expiry" true
        (st.lease_expiry_waits >= 1);
      Alcotest.(check int) "no revocation traffic" 0 st.lease_revokes;
      Alcotest.(check bool)
        (Printf.sprintf "write paid the lease term (%.0f ms)" ow.latency)
        true (ow.latency > 750.0);
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      Alcotest.(check bool) "post-write read leaves the site" true
        (o.path <> Runtime.Local);
      check_dval "post-write read is fresh" (Dval.Str "v2") (ok_value o))

(* Lost revocations degrade to the expiry wait — bounded, never wedged,
   never stale. *)
let test_lost_revocation_degrades_to_expiry_wait () =
  with_radical ~config:(lease_config Server.default_leases) (fun net fw ->
      let _ = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      let lose_revocations =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
            if String.equal label "lease_revoke" then Transport.Drop
            else Transport.Deliver)
      in
      let ow =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      Alcotest.(check bool) "write still succeeded" true (Result.is_ok ow.value);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check bool) "revocation was attempted" true
        (st.lease_revokes >= 1);
      Alcotest.(check bool) "fell back to the expiry wait" true
        (st.lease_expiry_waits >= 1);
      Transport.remove_fault net lose_revocations;
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_dval "reader is fresh after the wait" (Dval.Str "v2") (ok_value o))

(* --- Chaos ------------------------------------------------------------- *)

(* 20 seeds of the lease-chaos template (lost, duplicated and delayed
   lease_revoke messages, cache wipes, late cache updates) against a
   lease-enabled deployment: zero violations, deterministic replays. *)
let test_lease_chaos_smoke () =
  let template =
    match Chaos.Plan.find_template "lease-chaos" with
    | Some t -> t
    | None -> Alcotest.fail "lease-chaos template missing"
  in
  let config =
    {
      Experiments.Campaign.default_config with
      deployment =
        Radical.Deployment.config
          ~base:Experiments.Campaign.default_config.deployment [ Leased ];
    }
  in
  let app = Apps.Bundle.social in
  let summary =
    Experiments.Campaign.sweep ~config ~templates:[ template ] ~replay_every:10
      ~seeds:20 app
  in
  Alcotest.(check int) "20 runs" 20 summary.runs;
  Alcotest.(check int) "zero violations" 0 (List.length summary.failures);
  Alcotest.(check int) "deterministic replays" 0
    (List.length summary.replay_mismatches);
  Alcotest.(check bool) "faults actually applied" true
    (summary.total_faults_applied > 0)

let () =
  Alcotest.run "lease"
    [
      ( "table",
        [
          Alcotest.test_case "grant / holders / expiry" `Quick
            test_lease_grant_holders_expiry;
          Alcotest.test_case "forget until_leq guard" `Quick
            test_lease_forget_until_leq_guard;
        ] );
      ( "site",
        [
          Alcotest.test_case "install / valid / covered" `Quick
            test_site_install_valid_covered;
          Alcotest.test_case "drop fences in-flight grants" `Quick
            test_site_drop_fences_inflight_grants;
        ] );
      ( "local-serve",
        [
          Alcotest.test_case "zero round trips under the lease" `Quick
            test_local_serve_zero_round_trips;
          Alcotest.test_case "lease expires" `Quick test_lease_expires;
          Alcotest.test_case "off is seed behaviour" `Quick
            test_leases_off_is_seed_behaviour;
        ] );
      ( "settle",
        [
          Alcotest.test_case "writer blocked until revocation" `Quick
            test_writer_blocked_until_revocation;
          Alcotest.test_case "writer waits out expiry" `Quick
            test_writer_waits_out_expiry;
          Alcotest.test_case "lost revocation degrades to expiry wait" `Quick
            test_lost_revocation_degrades_to_expiry_wait;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "lease-chaos 20-seed smoke" `Slow
            test_lease_chaos_smoke;
        ] );
    ]
