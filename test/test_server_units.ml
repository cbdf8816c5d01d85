(* Isolation tests for the extracted server-engine layers: each test
   builds a bare [Server_state.t] — no transport services wired, no
   framework, no clients — and drives one layer directly. The full-stack
   behaviour of the same code paths is covered by test_radical,
   test_lease and the seed-identity golden; these tests pin the layer
   contracts (grant refusal rules, the settle barrier's two modes,
   propagation's origin-site exclusion, pipeline stage order). *)

open Sim
module Transport = Net.Transport
module Location = Net.Location
module Kv = Store.Kv
module Server_config = Radical.Server_config
module Server_state = Radical.Server_state
module Lease_authority = Radical.Server_lease_authority
module Propagator = Radical.Server_propagator
module Pipeline = Radical.Server_pipeline
module Lease = Radical.Lease
module Proto = Radical.Proto

let run_sim ?(seed = 7) f =
  let e = Engine.create ~seed () in
  Engine.run e f

(* A bare engine state at the near-storage location, loaded with [data],
   plus the transport to hang peer services off. *)
let bare_state ?(config = Server_config.default_config) ?(data = []) () =
  let net =
    Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
  in
  let kv = Kv.create () in
  Kv.load kv data;
  let t =
    Server_state.create ~net ~registry:(Radical.Registry.create ()) ~kv
      ~extsvc:(Radical.Extsvc.create ())
      config
  in
  (net, t)

let revoke_sink net ~loc received =
  Transport.serve net ~loc ~name:"lease_revoke"
    (fun (lr : Proto.lease_revoke) -> received := lr.lr_keys :: !received)

(* --- Lease_authority: grant refusal rules ---------------------------- *)

let leases_on revoke =
  {
    Server_config.default_config with
    leases = { Server_config.default_leases with duration = 100.0; revoke };
  }

let test_grant_rules () =
  run_sim (fun () ->
      let net, t =
        bare_state ~config:(leases_on true)
          ~data:[ ("x", Dval.Str "v1"); ("y", Dval.Str "w1") ]
          ()
      in
      let received = ref [] in
      t.lease_peers <-
        [ (Location.ca, revoke_sink net ~loc:Location.ca received) ];
      let vx = Kv.version_of t.kv "x" and vy = Kv.version_of t.kv "y" in
      (* Own site and unregistered sites get nothing. *)
      Alcotest.(check int) "own site refused" 0
        (List.length
           (Lease_authority.grant_leases t ~site:Location.va [ ("x", vx) ]));
      Alcotest.(check int) "unregistered site refused" 0
        (List.length
           (Lease_authority.grant_leases t ~site:Location.ie [ ("x", vx) ]));
      (* A registered site gets a grant only for keys whose version is
         still primary's and that no writer holds. *)
      Store.Locks.acquire t.locks ~owner:"w" [ ("y", Store.Locks.Write) ];
      let now = Engine.now () in
      (match
         Lease_authority.grant_leases t ~site:Location.ca
           [ ("x", vx); ("y", vy); ("x", vx + 7) ]
       with
      | [ g ] ->
          Alcotest.(check string) "granted key" "x" g.Proto.lg_key;
          Alcotest.(check int) "granted version" vx g.Proto.lg_version;
          Alcotest.(check (float 0.0)) "issued now" now g.Proto.lg_issued;
          Alcotest.(check (float 0.0)) "expiry = now + duration"
            (now +. 100.0) g.Proto.lg_until
      | gs ->
          Alcotest.failf "expected exactly one grant, got %d" (List.length gs));
      Alcotest.(check int) "grant counter" 1 t.s_lease_grants;
      Alcotest.(check int) "one live lease" 1
        (Lease.live t.lease_tbl ~now:(Engine.now ())))

let test_grant_disabled () =
  run_sim (fun () ->
      let net, t = bare_state ~data:[ ("x", Dval.Str "v1") ] () in
      let received = ref [] in
      t.lease_peers <-
        [ (Location.ca, revoke_sink net ~loc:Location.ca received) ];
      Alcotest.(check int) "leases off: no grants" 0
        (List.length
           (Lease_authority.grant_leases t ~site:Location.ca
              [ ("x", Kv.version_of t.kv "x") ])))

(* --- Lease_authority: the settle barrier's two modes ------------------ *)

let test_settle_by_revocation () =
  run_sim (fun () ->
      let net, t =
        bare_state ~config:(leases_on true) ~data:[ ("x", Dval.Str "v1") ] ()
      in
      let received = ref [] in
      t.lease_peers <-
        [ (Location.ca, revoke_sink net ~loc:Location.ca received) ];
      let grants =
        Lease_authority.grant_leases t ~site:Location.ca
          [ ("x", Kv.version_of t.kv "x") ]
      in
      Alcotest.(check int) "one grant out" 1 (List.length grants);
      Lease_authority.settle_write_leases t [ "x" ];
      Alcotest.(check int) "write found the grant" 1 t.s_lease_blocked;
      Alcotest.(check int) "one revocation RPC" 1 t.s_lease_revokes;
      Alcotest.(check int) "no expiry wait" 0 t.s_lease_waits;
      Alcotest.(check (list (list string)))
        "holder saw the write set" [ [ "x" ] ] !received;
      Alcotest.(check int) "lease dead" 0
        (Lease.live t.lease_tbl ~now:(Engine.now ())))

let test_settle_by_expiry_wait () =
  run_sim (fun () ->
      (* Revocation off: the writer must wait out the grant's expiry
         plus the clock-skew bound. *)
      let net, t =
        bare_state ~config:(leases_on false) ~data:[ ("x", Dval.Str "v1") ] ()
      in
      let received = ref [] in
      t.lease_peers <-
        [ (Location.ca, revoke_sink net ~loc:Location.ca received) ];
      let grant =
        match
          Lease_authority.grant_leases t ~site:Location.ca
            [ ("x", Kv.version_of t.kv "x") ]
        with
        | [ g ] -> g
        | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs)
      in
      Lease_authority.settle_write_leases t [ "x" ];
      Alcotest.(check int) "expiry wait taken" 1 t.s_lease_waits;
      Alcotest.(check int) "no revocation RPC" 0 t.s_lease_revokes;
      Alcotest.(check (list (list string))) "holder never contacted" []
        !received;
      Alcotest.(check (float 1e-6)) "slept to expiry + skew"
        (grant.Proto.lg_until +. Server_config.lease_skew)
        (Engine.now ());
      Alcotest.(check int) "lease dead" 0
        (Lease.live t.lease_tbl ~now:(Engine.now ())))

let test_settle_no_holders () =
  run_sim (fun () ->
      let _net, t =
        bare_state ~config:(leases_on true) ~data:[ ("x", Dval.Str "v1") ] ()
      in
      let t0 = Engine.now () in
      Lease_authority.settle_write_leases t [ "x" ];
      Alcotest.(check int) "nothing blocked" 0 t.s_lease_blocked;
      Alcotest.(check (float 0.0)) "latency-free" t0 (Engine.now ()))

(* --- Propagator: origin-site exclusion -------------------------------- *)

let prop_config =
  {
    Server_config.default_config with
    propagation = Server_config.default_propagation;
  }

let cache_update_sink net ~loc received =
  Transport.serve net ~loc ~name:"cache_update"
    (fun (cu : Proto.cache_update) -> received := cu :: !received)

let test_publish_excludes_origin () =
  run_sim (fun () ->
      let net, t =
        bare_state ~config:prop_config ~data:[ ("x", Dval.Str "v1") ] ()
      in
      let at_ca = ref [] and at_ie = ref [] in
      Propagator.subscribe t (cache_update_sink net ~loc:Location.ca at_ca);
      Propagator.subscribe t (cache_update_sink net ~loc:Location.ie at_ie);
      let records = Propagator.apply_updates t [ ("x", Dval.Str "v2") ] in
      let version = Kv.version_of t.kv "x" in
      Propagator.publish t ~exclude:Location.ca records;
      (* Ride out the Nagle window and the one-way delivery delays. *)
      Engine.sleep 500.0;
      Alcotest.(check int) "origin site got nothing" 0 (List.length !at_ca);
      (match !at_ie with
      | [ cu ] ->
          Alcotest.(check bool) "update mode" false cu.Proto.cu_invalidate;
          Alcotest.(check (list (pair string int)))
            "committed record"
            [ ("x", version) ]
            (List.map
               (fun (u, _) -> (u.Proto.up_key, u.Proto.up_version))
               cu.Proto.cu_updates)
      | cus ->
          Alcotest.failf "expected one cache_update, got %d" (List.length cus));
      Alcotest.(check int) "records counted per non-excluded destination" 1
        t.s_prop_records)

let test_publish_propagation_off () =
  run_sim (fun () ->
      let net, t = bare_state ~data:[ ("x", Dval.Str "v1") ] () in
      let at_ca = ref [] in
      Propagator.subscribe t (cache_update_sink net ~loc:Location.ca at_ca);
      Alcotest.(check int) "subscribe is a no-op" 0 (List.length t.subscribers);
      Propagator.publish t (Propagator.apply_updates t [ ("x", Dval.Str "v2") ]);
      Engine.sleep 500.0;
      Alcotest.(check int) "nothing delivered" 0 (List.length !at_ca);
      Alcotest.(check int) "nothing counted" 0 t.s_prop_records)

(* --- Pipeline: stage order and short-circuit -------------------------- *)

let probe trace name step =
  Pipeline.stage name (fun _ctx ->
      trace := name :: !trace;
      step)

let test_pipeline_order () =
  let trace = ref [] and hooks = ref [] in
  let reply =
    Pipeline.run
      ~on_stage:(fun n -> hooks := n :: !hooks)
      [
        probe trace "admit" Pipeline.Continue;
        probe trace "lock" Pipeline.Continue;
        probe trace "validate" Pipeline.Continue;
      ]
      41
      ~finish:(fun ctx -> ctx + 1)
  in
  Alcotest.(check int) "finish produced the reply" 42 reply;
  Alcotest.(check (list string))
    "stages ran in order"
    [ "admit"; "lock"; "validate" ]
    (List.rev !trace);
  Alcotest.(check (list string))
    "hook fired before each stage"
    [ "admit"; "lock"; "validate" ]
    (List.rev !hooks)

let test_pipeline_done_short_circuits () =
  let trace = ref [] and hooks = ref [] in
  let reply =
    Pipeline.run
      ~on_stage:(fun n -> hooks := n :: !hooks)
      [
        probe trace "admit" Pipeline.Continue;
        probe trace "reply_now" (Pipeline.Done 99);
        probe trace "never" Pipeline.Continue;
      ]
      0
      ~finish:(fun _ -> Alcotest.fail "finish must not run after Done")
  in
  Alcotest.(check int) "Done's reply wins" 99 reply;
  Alcotest.(check (list string))
    "later stages skipped" [ "admit"; "reply_now" ] (List.rev !trace);
  Alcotest.(check (list string))
    "hook stopped with the pipeline" [ "admit"; "reply_now" ] (List.rev !hooks)

let () =
  Alcotest.run "server_units"
    [
      ( "lease_authority",
        [
          Alcotest.test_case "grant refusal rules" `Quick test_grant_rules;
          Alcotest.test_case "grants off by default" `Quick test_grant_disabled;
          Alcotest.test_case "settle by revocation" `Quick
            test_settle_by_revocation;
          Alcotest.test_case "settle by expiry wait" `Quick
            test_settle_by_expiry_wait;
          Alcotest.test_case "settle without holders" `Quick
            test_settle_no_holders;
        ] );
      ( "propagator",
        [
          Alcotest.test_case "publish excludes the origin site" `Quick
            test_publish_excludes_origin;
          Alcotest.test_case "propagation off is inert" `Quick
            test_publish_propagation_off;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage order" `Quick test_pipeline_order;
          Alcotest.test_case "Done short-circuits" `Quick
            test_pipeline_done_short_circuits;
        ] );
    ]
