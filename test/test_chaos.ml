(* Tests for lib/chaos: the fault-plan DSL, the nemesis driver, the
   invariant oracle, and the campaign runner with shrinking — plus the
   promoted failure-drill scenarios and non-quiescent
   [Server.restart_recover] coverage. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Kv = Store.Kv
module Plan = Chaos.Plan
module Nemesis = Chaos.Nemesis
module Oracle = Chaos.Oracle
module Campaign = Chaos.Campaign

(* --- Test functions and harness -------------------------------------- *)

let get_fn =
  { fn_name = "get"; params = [ "k" ]; body = Compute (100.0, Read (Input "k")) }

let put_fn =
  {
    fn_name = "put";
    params = [ "k"; "v" ];
    body = Compute (20.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
  }

let funcs = [ get_fn; put_fn ]

let data = [ ("x", Dval.Str "v1"); ("y", Dval.int 0) ]

let with_radical ?(seed = 11) ?config ?(funcs = funcs) ?(data = data) f =
  let e = Engine.create ~seed () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw = Framework.create ?config ~net ~funcs ~data () in
      f net fw;
      Framework.stop fw)

(* The paper deployment with an 800 ms intent-timeout ceiling. *)
let short_timer_config = Campaign.default_config.deployment

let ok_value (o : Runtime.outcome) =
  match o.value with
  | Ok v -> v
  | Error e -> Alcotest.fail ("execution failed: " ^ e)

let version_of fw k =
  match Kv.peek (Framework.primary fw) k with
  | Some { Kv.version; _ } -> version
  | None -> 0

(* A tiny key-value campaign app over a handful of contended keys. *)
let kv_app =
  {
    Apps.Bundle.name = "kv";
    funcs;
    schema = [];
    seed =
      (fun _ -> List.init 10 (fun i -> (Printf.sprintf "k%d" i, Dval.int 0)));
    new_gen =
      (fun () rng ->
        let k = Printf.sprintf "k%d" (Rng.int rng 10) in
        if Rng.bool rng then
          ("put", [ Dval.Str k; Dval.int (Rng.int rng 100) ])
        else ("get", [ Dval.Str k ]));
  }

(* --- Plan DSL --------------------------------------------------------- *)

let test_plan_horizon () =
  let plan =
    [
      Plan.event ~at:100.0
        (Plan.Drop_messages
           { filter = Plan.followups (); prob = 1.0; duration = 500.0 });
      Plan.event ~at:400.0 (Plan.Wipe_cache Location.jp);
      Plan.event ~at:200.0
        (Plan.Crash_raft_node { victim = `Leader; downtime = 900.0 });
    ]
  in
  Alcotest.(check (float 1e-9)) "horizon = max(at + duration)" 1100.0
    (Plan.horizon_of plan);
  Alcotest.(check (float 1e-9)) "empty plan horizon" 0.0 (Plan.horizon_of [])

let test_templates_respect_horizon () =
  let horizon = 5000.0 in
  List.iter
    (fun (t : Plan.template) ->
      for seed = 1 to 20 do
        let rng = Rng.create (seed * 7919) in
        let plan =
          t.t_gen ~rng ~horizon ~locations:Location.user_locations
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d nonempty" t.t_name seed)
          true (plan <> []);
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d within horizon" t.t_name seed)
          true
          (Plan.horizon_of plan <= horizon);
        List.iter
          (fun (e : Plan.event) ->
            Alcotest.(check bool) "event not before t=0" true (e.at >= 0.0))
          plan
      done)
    Plan.default_templates

let test_find_template () =
  Alcotest.(check bool) "raft-churn exists" true
    (Option.is_some (Plan.find_template "raft-churn"));
  Alcotest.(check bool) "unknown template" true
    (Option.is_none (Plan.find_template "meteor-strike"))

(* --- Drill scenarios as plans (promoted from examples/failure_drill) --- *)

let test_lost_followup_reexecutes () =
  with_radical ~config:short_timer_config (fun net fw ->
      let env = { Nemesis.net; fw } in
      ignore
        (Nemesis.launch env
           [
             Plan.event ~at:0.0
               (Plan.Drop_messages
                  {
                    filter = Plan.followups ~src:Location.de ();
                    prob = 1.0;
                    duration = 600.0;
                  });
           ]);
      let o =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      ignore (ok_value o);
      Engine.sleep 2000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "one deterministic re-execution" 1 st.reexecutions;
      Alcotest.(check int) "write applied exactly once" 2 (version_of fw "x");
      Alcotest.(check (list string)) "drained" []
        (List.map
           (fun (v : Oracle.violation) -> v.detail)
           (Oracle.drained fw)))

let test_late_followup_discarded () =
  with_radical ~config:short_timer_config (fun net fw ->
      let env = { Nemesis.net; fw } in
      ignore
        (Nemesis.launch env
           [
             Plan.event ~at:0.0
               (Plan.Delay_messages
                  {
                    filter = Plan.followups ~src:Location.de ();
                    extra = 3000.0;
                    prob = 1.0;
                    duration = 600.0;
                  });
           ]);
      let o =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      ignore (ok_value o);
      Engine.sleep 5000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "timer re-executed" 1 st.reexecutions;
      Alcotest.(check int) "late followup discarded" 1 st.followups_discarded;
      Alcotest.(check int) "no double apply" 2 (version_of fw "x"))

let test_cache_wipe_self_repairs () =
  with_radical (fun net fw ->
      let env = { Nemesis.net; fw } in
      let o1 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      Alcotest.(check string) "warm read speculative" "speculative"
        (match o1.path with Runtime.Speculative -> "speculative" | _ -> "other");
      ignore
        (Nemesis.launch env
           [ Plan.event ~at:0.0 (Plan.Wipe_cache Location.jp) ]);
      Engine.sleep 1.0;
      Alcotest.(check int) "cache empty" 0
        (Cache.size (Runtime.cache (Framework.runtime fw Location.jp)));
      let o2 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      Alcotest.(check string) "cold read backup" "backup"
        (match o2.path with Runtime.Backup -> "backup" | _ -> "other");
      let o3 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      Alcotest.(check string) "repaired read speculative" "speculative"
        (match o3.path with Runtime.Speculative -> "speculative" | _ -> "other");
      Alcotest.(check (list string)) "caches coherent after repair" []
        (List.map
           (fun (v : Oracle.violation) -> v.detail)
           (Oracle.caches_coherent fw)))

(* --- Non-quiescent restart_recover (satellite: restart coverage) ------ *)

let test_restart_with_pending_intent_and_inflight_followup () =
  with_radical ~config:short_timer_config (fun net fw ->
      (* Slow every followup down; the restart happens while the intent
         is pending and its followup is still in flight. *)
      let h =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
            if String.equal label "followup" then Transport.Delay 5000.0
            else Transport.Deliver)
      in
      let o =
        Framework.invoke fw ~from:Location.de "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      ignore (ok_value o);
      let server = Framework.server fw in
      Alcotest.(check int) "intent pending at restart" 1
        (Server.pending_intents server);
      Server.restart_recover server;
      Alcotest.(check int) "recovery re-executed the intent" 1
        (Server.stats server).reexecutions;
      Alcotest.(check int) "write applied by re-execution" 2
        (version_of fw "x");
      Alcotest.(check int) "no pending intent after recovery" 0
        (Server.pending_intents server);
      Alcotest.(check int) "locks released" 0 (Server.locks_held server);
      (* The delayed followup lands long after recovery: discarded, not
         applied a second time. *)
      Engine.sleep 6000.0;
      Alcotest.(check int) "in-flight followup discarded" 1
        (Server.stats server).followups_discarded;
      Alcotest.(check int) "still applied exactly once" 2 (version_of fw "x");
      Transport.remove_fault net h)

let test_restart_with_request_in_flight () =
  with_radical ~config:short_timer_config (fun _net fw ->
      (* Restart while the LVI request is still on the wire (~70 ms one
         way from JP, restart at 40 ms): the server has no intent yet,
         the handler fiber proceeds normally after the restart. *)
      let result = ref None in
      Engine.spawn (fun () ->
          result :=
            Some
              (Framework.invoke fw ~from:Location.jp "put"
                 [ Dval.Str "y"; Dval.int 9 ]));
      Engine.sleep 40.0;
      Server.restart_recover (Framework.server fw);
      Alcotest.(check int) "nothing to re-execute" 0
        (Server.stats (Framework.server fw)).reexecutions;
      Engine.sleep 4000.0;
      (match !result with
      | Some o -> ignore (ok_value o)
      | None -> Alcotest.fail "in-flight request never completed");
      Alcotest.(check int) "write applied exactly once" 2 (version_of fw "y");
      Alcotest.(check int) "drained" 0
        (Server.pending_intents (Framework.server fw) +
         Server.locks_held (Framework.server fw)))

(* A cache wipe landing mid-speculation must not leak unvalidated
   state into the result: [get] computes for 100 ms before its read,
   so wiping 60 ms in hits the window between the LVI version snapshot
   and the speculative cache read. The speculation must serve the read
   from the validated snapshot, return the real value, and leave a
   linearizable history. *)
let test_wipe_mid_speculation_stays_consistent () =
  with_radical (fun _net fw ->
      Framework.record_history fw;
      let outcome = ref None in
      Engine.spawn (fun () ->
          outcome := Some (Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ]));
      Engine.sleep 60.0;
      Cache.wipe (Runtime.cache (Framework.runtime fw Location.jp));
      Engine.sleep 3000.0;
      (match !outcome with
      | Some o ->
          Alcotest.(check bool) "speculative path" true (o.path = Runtime.Speculative);
          Alcotest.(check string) "validated snapshot value" "v1"
            (match ok_value o with Dval.Str s -> s | _ -> "?")
      | None -> Alcotest.fail "invocation did not complete");
      Alcotest.(check int) "history linearizable" 0
        (List.length (Oracle.check ~init:data fw)))

(* --- Oracle ----------------------------------------------------------- *)

let test_oracle_clean_deployment () =
  with_radical (fun _net fw ->
      Framework.record_history fw;
      ignore (Framework.invoke fw ~from:Location.ca "put" [ Dval.Str "x"; Dval.Str "v2" ]);
      ignore (Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ]);
      Engine.sleep 3000.0;
      Alcotest.(check int) "no violations" 0
        (List.length (Oracle.check ~init:data fw)))

let test_oracle_flags_poisoned_cache () =
  with_radical (fun _net fw ->
      let cache = Runtime.cache (Framework.runtime fw Location.ca) in
      (* Same version as the primary but a different value: the state a
         repaired cache can never legitimately reach. *)
      Cache.wipe cache;
      Cache.update cache "x" (Dval.Str "poison") ~version:(version_of fw "x");
      (match Oracle.caches_coherent fw with
      | [ v ] ->
          Alcotest.(check bool) "names the poisoned key" true
            (String.length v.detail > 0 && v.inv = "cache-coherent")
      | vs ->
          Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs));
      (* A cache entry versioned ahead of the primary is equally bad. *)
      Cache.update cache "x" (Dval.Str "future") ~version:(version_of fw "x" + 5);
      Alcotest.(check bool) "version-ahead flagged" true
        (Oracle.caches_coherent fw <> []))

let test_oracle_flags_effect_miscounts () =
  with_radical (fun _net fw ->
      Framework.register_external fw ~name:"pay" (fun v -> v);
      let ext = Framework.external_services fw in
      (* Two distinct idempotency keys -> two handler runs; a duplicate
         key -> deduplicated. *)
      ignore (Radical.Extsvc.call ext ~service:"pay" ~key:"a" Dval.Unit);
      ignore (Radical.Extsvc.call ext ~service:"pay" ~key:"a" Dval.Unit);
      ignore (Radical.Extsvc.call ext ~service:"pay" ~key:"b" Dval.Unit);
      let spec i c =
        { Oracle.e_service = "pay"; e_issued = i; e_completed = c }
      in
      Alcotest.(check int) "2 runs within 3 issued: ok" 0
        (List.length (Oracle.effects_exactly_once fw [ spec 3 2 ]));
      Alcotest.(check int) "more runs than issued: flagged" 1
        (List.length (Oracle.effects_exactly_once fw [ spec 1 1 ]));
      Alcotest.(check int) "more completions than runs: flagged" 1
        (List.length (Oracle.effects_exactly_once fw [ spec 5 3 ])))

(* --- Campaign: sweeps, determinism, teeth ----------------------------- *)

let test_small_sweep_no_violations () =
  let summary =
    Campaign.sweep ~replay_every:5 ~seeds:2 kv_app
  in
  Alcotest.(check bool) "ran the full grid" true (summary.Campaign.runs >= 12);
  Alcotest.(check int) "zero violations" 0
    (List.length summary.Campaign.failures);
  Alcotest.(check bool) "replays checked" true
    (summary.Campaign.replay_checks > 0);
  Alcotest.(check int) "replays deterministic" 0
    (List.length summary.Campaign.replay_mismatches)

let test_run_one_deterministic () =
  let plan =
    [
      Plan.event ~seed:5 ~at:300.0
        (Plan.Drop_messages
           { filter = Plan.followups (); prob = 0.6; duration = 2000.0 });
      Plan.event ~at:800.0 (Plan.Wipe_cache Location.ie);
    ]
  in
  let o1 = Campaign.run_one ~seed:42 kv_app plan in
  let o2 = Campaign.run_one ~seed:42 kv_app plan in
  Alcotest.(check string) "identical history fingerprints" o1.Campaign.fingerprint
    o2.Campaign.fingerprint;
  Alcotest.(check int) "no violations" 0 (List.length o1.Campaign.violations);
  let o3 = Campaign.run_one ~seed:43 kv_app plan in
  Alcotest.(check bool) "different seed, different history" true
    (not (String.equal o1.Campaign.fingerprint o3.Campaign.fingerprint))

(* The acceptance demonstration: a deliberately broken protocol (skipped
   intent re-execution) is invisible on a clean network, caught by the
   oracle under a followup blackout, and the failing plan shrinks to
   exactly that one event. *)
let test_mutation_caught_and_shrunk () =
  let mutated =
    {
      Campaign.default_config with
      mutation = Some Server.Skip_reexecution;
      horizon = 9500.0;
    }
  in
  let noisy =
    [
      Plan.event ~at:50.0
        (Plan.Delay_messages
           {
             filter = Plan.any_message;
             extra = 100.0;
             prob = 1.0;
             duration = 2000.0;
           });
      Plan.event ~at:200.0 (Plan.Wipe_cache Location.ie);
      Plan.event ~at:300.0
        (Plan.Drop_messages
           { filter = Plan.followups (); prob = 1.0; duration = 9000.0 });
      Plan.event ~at:900.0
        (Plan.Pause_site { loc = Location.jp; duration = 400.0 });
    ]
  in
  (* The mutation alone is harmless: without a lost followup there is
     never an orphaned intent to skip. *)
  let calm = Campaign.run_one ~config:mutated ~seed:7 kv_app [] in
  Alcotest.(check int) "mutation invisible on a clean network" 0
    (List.length calm.Campaign.violations);
  (* Under the noisy plan the oracle catches it... *)
  let o = Campaign.run_one ~config:mutated ~seed:7 kv_app noisy in
  Alcotest.(check bool) "violations caught" true
    (o.Campaign.violations <> []);
  (* ...and shrinking isolates the one event that matters. *)
  let shrunk = Campaign.shrink ~config:mutated ~seed:7 kv_app noisy in
  Alcotest.(check int) "shrunk to a single event" 1 (List.length shrunk);
  (match shrunk with
  | [ { Plan.action = Plan.Drop_messages { prob; _ }; _ } ] ->
      Alcotest.(check (float 1e-9)) "the followup blackout" 1.0 prob
  | _ -> Alcotest.fail "shrunk plan kept the wrong event");
  (* The same plan on the unmutated protocol is survivable — the bug,
     not the faults, caused the violations. *)
  let healthy = Campaign.run_one ~seed:7 kv_app shrunk in
  Alcotest.(check int) "correct protocol survives the shrunk plan" 0
    (List.length healthy.Campaign.violations)

let test_replicated_raft_churn () =
  let config =
    {
      Campaign.default_config with
      deployment =
        Radical.Deployment.config ~base:short_timer_config [ Replicated ];
    }
  in
  let plan =
    [
      Plan.event ~at:400.0
        (Plan.Crash_raft_node { victim = `Leader; downtime = 800.0 });
      Plan.event ~at:2000.0
        (Plan.Crash_raft_node { victim = `Node 1; downtime = 600.0 });
    ]
  in
  let o = Campaign.run_one ~config ~seed:3 kv_app plan in
  Alcotest.(check int) "both crashes applied" 2 o.Campaign.faults_applied;
  Alcotest.(check int) "no violations under raft churn" 0
    (List.length o.Campaign.violations)

let test_raft_crash_skipped_on_singleton () =
  let plan =
    [
      Plan.event ~at:100.0
        (Plan.Crash_raft_node { victim = `Leader; downtime = 500.0 });
    ]
  in
  let o = Campaign.run_one ~seed:3 kv_app plan in
  Alcotest.(check int) "crash skipped" 1 o.Campaign.faults_skipped;
  Alcotest.(check int) "no violations" 0 (List.length o.Campaign.violations)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "horizon" `Quick test_plan_horizon;
          Alcotest.test_case "templates respect horizon" `Quick
            test_templates_respect_horizon;
          Alcotest.test_case "find_template" `Quick test_find_template;
        ] );
      ( "drill",
        [
          Alcotest.test_case "lost followup re-executes" `Quick
            test_lost_followup_reexecutes;
          Alcotest.test_case "late followup discarded" `Quick
            test_late_followup_discarded;
          Alcotest.test_case "cache wipe self-repairs" `Quick
            test_cache_wipe_self_repairs;
        ] );
      ( "restart",
        [
          Alcotest.test_case "pending intent + in-flight followup" `Quick
            test_restart_with_pending_intent_and_inflight_followup;
          Alcotest.test_case "request in flight" `Quick
            test_restart_with_request_in_flight;
          Alcotest.test_case "wipe mid-speculation stays consistent" `Quick
            test_wipe_mid_speculation_stays_consistent;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean deployment" `Quick
            test_oracle_clean_deployment;
          Alcotest.test_case "poisoned cache flagged" `Quick
            test_oracle_flags_poisoned_cache;
          Alcotest.test_case "effect miscounts flagged" `Quick
            test_oracle_flags_effect_miscounts;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "small sweep, no violations" `Slow
            test_small_sweep_no_violations;
          Alcotest.test_case "deterministic replay" `Quick
            test_run_one_deterministic;
          Alcotest.test_case "mutation caught and shrunk" `Slow
            test_mutation_caught_and_shrunk;
          Alcotest.test_case "replicated raft churn" `Quick
            test_replicated_raft_churn;
          Alcotest.test_case "raft crash skipped on singleton" `Quick
            test_raft_crash_skipped_on_singleton;
        ] );
    ]
