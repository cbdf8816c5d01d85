(* Tests for asynchronous cache-update propagation (DESIGN.md §11):
   cross-site freshness, version-guarded installs under duplication and
   reordering, invalidate-only mode, duplicate-delivery dedup at the
   LVI server, the write-set accounting regression, and a chaos smoke
   sweep of the propagation-chaos template. *)

open Sim
open Fdsl.Ast
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime
module Server = Radical.Server
module Kv = Store.Kv

(* --- Test functions ------------------------------------------------- *)

let get_fn =
  { fn_name = "get"; params = [ "k" ]; body = Compute (10.0, Read (Input "k")) }

let put_fn =
  {
    fn_name = "put";
    params = [ "k"; "v" ];
    body = Compute (5.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
  }

let funcs = [ get_fn; put_fn ]

let data = [ ("x", Dval.Str "v1"); ("y", Dval.Str "w1") ]

let prop_config prop =
  {
    Framework.default_config with
    server = { Server.default_config with propagation = prop };
  }

let with_radical ?config ?rtt f =
  let e = Engine.create ~seed:11 () in
  Engine.run e (fun () ->
      let net =
        Transport.create ?rtt ~jitter_sigma:0.0
          ~rng:(Rng.split (Engine.rng ()))
          ()
      in
      let fw = Framework.create ?config ~net ~funcs ~data () in
      f net fw;
      Framework.stop fw)

let ok_value (o : Runtime.outcome) =
  match o.value with
  | Ok v -> v
  | Error e -> Alcotest.fail ("execution failed: " ^ e)

let check_path msg expected (o : Runtime.outcome) =
  let name = function
    | Runtime.Speculative -> "speculative"
    | Runtime.Backup -> "backup"
    | Runtime.Fallback -> "fallback"
    | Runtime.Local -> "local"
  in
  Alcotest.(check string) msg (name expected) (name o.path)

let check_dval msg expected got =
  Alcotest.(check string) msg (Dval.to_string expected) (Dval.to_string got)

(* --- Cross-site freshness --------------------------------------------- *)

(* The tentpole behaviour: a write committed from one site reaches every
   other site's cache asynchronously, so the next read there validates
   speculatively instead of paying the mismatch/backup path (contrast
   test_radical's cross-site read-after-write, which documents the seed
   behaviour with propagation off). *)
let test_remote_read_validates_after_propagation () =
  let config = Radical.Deployment.config [ Propagating ] in
  with_radical ~config (fun _ fw ->
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      (* Followup commit + 2 ms Nagle window + one-way fan-out. *)
      Engine.sleep 400.0;
      let o = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "remote cache already fresh" Runtime.Speculative o;
      check_dval "fresh value" (Dval.Str "new") (ok_value o);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check bool) "records published" true (st.prop_records > 0);
      Alcotest.(check bool) "batches flushed" true (st.prop_batches > 0);
      let rt = Framework.runtime fw Location.de in
      Alcotest.(check bool) "DE installed at least x" true
        ((Runtime.stats rt).prop_installed >= 1))

(* Propagation off must be byte-for-byte the seed behaviour: no
   subscriber machinery, no cache_update traffic, and the remote read
   still pays the backup path. *)
let test_propagation_off_is_seed_behaviour () =
  with_radical (fun _ fw ->
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 400.0;
      let o = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "stale remote read still mismatches" Runtime.Backup o;
      check_dval "fresh value via backup" (Dval.Str "new") (ok_value o);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "no records" 0 st.prop_records;
      Alcotest.(check int) "no batches" 0 st.prop_batches;
      let installed =
        List.fold_left
          (fun acc loc ->
            acc + (Runtime.stats (Framework.runtime fw loc)).prop_installed)
          0 (Framework.locations fw)
      in
      Alcotest.(check int) "no installs anywhere" 0 installed)

(* The origin site already installed its own writes optimistically; the
   propagated copy must not double-install (version guard). *)
let test_origin_not_reinstalled () =
  let config = Radical.Deployment.config [ Propagating ] in
  with_radical ~config (fun _ fw ->
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 400.0;
      let rt = Framework.runtime fw Location.ca in
      Alcotest.(check int) "origin cache untouched by propagation" 0
        (Runtime.stats rt).prop_installed)

(* --- Version monotonicity under duplication and reordering ------------ *)

let test_monotonic_under_duplication_and_reorder () =
  let config =
    prop_config
      { Server.enabled = true; prop_window = 0.0; invalidate_only = false }
  in
  with_radical ~config (fun net fw ->
      (* Every cache_update message is either duplicated or delayed by a
         random amount — deliveries arrive out of order and more than
         once. Version-guarded installs must still converge every site
         to the newest version and never regress. *)
      let frng = Transport.fault_rng net in
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if String.equal label "cache_update" then
               if Rng.int frng 2 = 0 then Transport.Duplicate
               else Transport.Delay (Rng.float frng 200.0)
             else Transport.Deliver)
          : int);
      for i = 1 to 6 do
        let _ =
          Framework.invoke fw ~from:Location.ca "put"
            [ Dval.Str "x"; Dval.Str (Printf.sprintf "v%d" i) ]
        in
        Engine.sleep 30.0
      done;
      Engine.sleep 2000.0;
      let primary =
        match Kv.peek (Framework.primary fw) "x" with
        | Some e -> e
        | None -> Alcotest.fail "x missing at primary"
      in
      check_dval "primary holds the last write" (Dval.Str "v6") primary.value;
      List.iter
        (fun loc ->
          let cache = Runtime.cache (Framework.runtime fw loc) in
          match Cache.peek cache "x" with
          | Some { value; version } ->
              Alcotest.(check int)
                (loc ^ " converged to the primary version")
                primary.version version;
              check_dval (loc ^ " holds the newest value") primary.value value
          | None -> Alcotest.fail (loc ^ " lost x"))
        (Framework.locations fw);
      (* And a read anywhere validates without repair. *)
      let o = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      check_path "remote read validates" Runtime.Speculative o)

(* Lost cache_update messages are harmless: the site just stays stale
   until its own next mismatch, exactly like propagation off. *)
let test_lost_updates_degrade_to_seed_behaviour () =
  let config = Radical.Deployment.config [ Propagating ] in
  with_radical ~config (fun net fw ->
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if String.equal label "cache_update" then Transport.Drop
             else Transport.Deliver)
          : int);
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 400.0;
      let o = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "falls back to mismatch repair" Runtime.Backup o;
      check_dval "still correct" (Dval.Str "new") (ok_value o);
      let o2 = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "repaired" Runtime.Speculative o2)

(* --- Invalidate-only mode --------------------------------------------- *)

let test_invalidate_only_evicts_stale_entries () =
  let config =
    prop_config
      { Server.enabled = true; prop_window = 2.0; invalidate_only = true }
  in
  with_radical ~config (fun _ fw ->
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 400.0;
      let cache = Runtime.cache (Framework.runtime fw Location.de) in
      Alcotest.(check bool) "stale entry evicted, not replaced" true
        (Cache.peek cache "x" = None);
      (* Unrelated keys survive. *)
      Alcotest.(check bool) "y untouched" true (Cache.peek cache "y" <> None);
      (* The next read is a miss — no speculation against a stale value,
         the backup path returns the fresh one and re-seeds the cache. *)
      let o = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "miss takes backup" Runtime.Backup o;
      check_dval "fresh value" (Dval.Str "new") (ok_value o);
      let o2 = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "re-seeded" Runtime.Speculative o2)

(* --- Duplicate LVI delivery ------------------------------------------- *)

(* The transport's Duplicate fault delivers the same LVI request twice.
   The server's reply cache must hand both deliveries one response and
   process the side effects (locks, intent, version bumps) once. *)
let test_duplicate_lvi_delivery_processed_once () =
  with_radical (fun net fw ->
      let first = ref true in
      ignore
        (Transport.add_fault net (fun ~src ~dst:_ ~label ->
             if String.equal label "lvi" && src = Location.ca && !first
             then begin
               first := false;
               Transport.Duplicate
             end
             else Transport.Deliver)
          : int);
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      check_path "client unaffected" Runtime.Speculative o;
      Engine.sleep 500.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "duplicate detected" 1 st.dup_deliveries;
      Alcotest.(check int) "validated once" 1 st.validated;
      Alcotest.(check int) "followup applied once" 1 st.followups_applied;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; version } ->
          check_dval "value committed" (Dval.Str "v2") value;
          Alcotest.(check int) "version bumped exactly once" 2 version
      | None -> Alcotest.fail "x missing");
      Alcotest.(check int) "locks drained" 0
        (Server.locks_held (Framework.server fw));
      Alcotest.(check int) "no orphaned intent" 0
        (Server.pending_intents (Framework.server fw)))

(* A duplicate that arrives after the reply but inside the message
   lifetime replays that reply without a second execution; once the
   server has been quiet for longer than the lifetime, it holds no dedup
   state. *)
let test_late_duplicate_replayed_then_forgotten () =
  with_radical (fun net fw ->
      let server = Framework.server fw in
      let req =
        {
          Radical.Proto.exec_id = "late-dup";
          fn_name = "put";
          args = [ Dval.Str "x"; Dval.Str "v2" ];
          reads = [];
          writes = [ "x" ];
          ro_hint = false;
          from_loc = Location.ca;
          piggyback = [];
          acks = [];
        }
      in
      let svc = Server.lvi_service server in
      let r1 = Transport.call net ~from:Location.ca svc req in
      Transport.post net ~from:Location.ca (Server.followup_service server)
        [
          {
            Radical.Proto.fu_exec_id = "late-dup";
            fu_from = Location.ca;
            fu_updates = [ ("x", Dval.Str "v2") ];
          };
        ];
      Engine.sleep (Transport.max_message_age /. 2.0);
      Alcotest.(check int) "reply cached" 1 (Server.dedup_entries server);
      let r2 = Transport.call net ~from:Location.ca svc req in
      Alcotest.(check bool) "same reply replayed" true (r1 == r2);
      let st = Server.stats server in
      Alcotest.(check int) "processed once" 1 st.requests;
      Alcotest.(check int) "duplicate detected" 1 st.dup_deliveries;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { version; _ } -> Alcotest.(check int) "written once" 2 version
      | None -> Alcotest.fail "x missing");
      Engine.sleep (Transport.max_message_age +. 1.0);
      Alcotest.(check int) "quiet past the lifetime: nothing held" 0
        (Server.dedup_entries server))

(* --- Acknowledged replies ---------------------------------------------- *)

let lvi_req ?(acks = []) exec_id fn_name args ~writes =
  {
    Radical.Proto.exec_id;
    fn_name;
    args;
    reads = [];
    writes;
    ro_hint = false;
    from_loc = Location.ca;
    piggyback = [];
    acks;
  }

let put_a = lvi_req "A" "put" [ Dval.Str "x"; Dval.Str "v2" ] ~writes:[ "x" ]

let follow_up_a net server =
  Transport.post net ~from:Location.ca (Server.followup_service server)
    [
      {
        Radical.Proto.fu_exec_id = "A";
        fu_from = Location.ca;
        fu_updates = [ ("x", Dval.Str "v2") ];
      };
    ]

(* B acknowledges A's reply, so the server drops A's response and keeps
   only its key and deadline. A copy of A that lands after that is still
   a duplicate: nothing runs again, and its tombstone reply reaches a
   client that has finished the call and drops it as late. *)
let test_duplicate_after_ack_gets_tombstone () =
  (* The fault hook duplicates A's request; the transport samples the
     first copy's delay, then the second's, and [lag] stretches the
     second to 1.5 s one way, so that copy lands after B. *)
  let lag = ref 0 in
  let rtt a b =
    match !lag with
    | 2 ->
        lag := 1;
        Location.rtt a b
    | 1 ->
        lag := 0;
        3000.0
    | _ -> Location.rtt a b
  in
  with_radical ~rtt (fun net fw ->
      let server = Framework.server fw in
      let svc = Server.lvi_service server in
      let call req =
        Transport.call_timeout net ~from:Location.ca
          ~timeout:Runtime.rpc_timeout svc req
      in
      let first = ref true in
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if String.equal label "lvi" && !first then begin
               first := false;
               lag := 2;
               Transport.Duplicate
             end
             else Transport.Deliver)
          : int);
      (match call put_a with
      | Some (Radical.Proto.Validated _) -> ()
      | _ -> Alcotest.fail "A not validated");
      follow_up_a net server;
      Engine.sleep 200.0;
      ignore (call (lvi_req ~acks:[ "A" ] "B" "get" [ Dval.Str "y" ] ~writes:[]));
      Alcotest.(check int) "only B's reply held" 1 (Server.held_replies server);
      Alcotest.(check int) "A's entry kept for dedup" 2
        (Server.dedup_entries server);
      let before = Server.stats server in
      Alcotest.(check int) "copy of A not yet in" 0 before.dup_deliveries;
      Engine.sleep 4000.0;
      let after = Server.stats server in
      Alcotest.(check int) "late copy is a duplicate" 1 after.dup_deliveries;
      Alcotest.(check int) "nothing re-runs" before.requests after.requests;
      Alcotest.(check int) "no new validation" before.validated after.validated;
      Alcotest.(check int) "no intent" 0 (Server.pending_intents server);
      Alcotest.(check int) "locks drained" 0 (Server.locks_held server);
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { version; _ } -> Alcotest.(check int) "written once" 2 version
      | None -> Alcotest.fail "x missing");
      Alcotest.(check int) "client drops the reply as late" 1
        (Transport.late_replies net))

(* Until the client acknowledges it, a reply stays whole: a copy of A
   arriving before B's ack gets A's own response. *)
let test_duplicate_before_ack_gets_full_reply () =
  with_radical (fun net fw ->
      let server = Framework.server fw in
      let svc = Server.lvi_service server in
      let r1 = Transport.call net ~from:Location.ca svc put_a in
      follow_up_a net server;
      Engine.sleep 200.0;
      let r2 = Transport.call net ~from:Location.ca svc put_a in
      Alcotest.(check bool) "A's own response replayed" true (r1 == r2);
      (match r2 with
      | Radical.Proto.Validated { write_versions; _ } ->
          Alcotest.(check (list (pair string int)))
            "A's write versions" [ ("x", 1) ] write_versions
      | Radical.Proto.Mismatch _ -> Alcotest.fail "expected A's validation");
      Alcotest.(check int) "A's reply held" 1 (Server.held_replies server);
      ignore
        (Transport.call net ~from:Location.ca svc
           (lvi_req ~acks:[ "A" ] "B" "get" [ Dval.Str "y" ] ~writes:[]));
      Alcotest.(check int) "after the ack only B's is held" 1
        (Server.held_replies server);
      Alcotest.(check int) "both entries kept" 2 (Server.dedup_entries server);
      Alcotest.(check int) "processed once" 2 (Server.stats server).requests)

(* --- Write-set accounting regression ---------------------------------- *)

(* Regression for the version-accounting bug: a write outside the
   validated write set used to be silently committed with a fabricated
   base version (Option.value ~default:0). The only way to produce one
   is an unsound manual f^rw that under-predicts the write set; the
   runtime must now refuse loudly instead of corrupting versions. *)
let sneaky_fn =
  {
    fn_name = "sneaky";
    params = [ "u" ];
    body =
      Compute
        ( 5.0,
          Seq
            [
              Write (Opaque (Concat [ Str "sneak:a:"; Input "u" ]), Input "u");
              Write (Opaque (Concat [ Str "sneak:b:"; Input "u" ]), Input "u");
              Input "u";
            ] );
  }

(* Under-predicts: declares only the first write. *)
let sneaky_rw =
  {
    fn_name = "sneaky^rw";
    params = [ "u" ];
    body = Declare (Decl_write, Concat [ Str "sneak:a:"; Input "u" ]);
  }

let test_write_outside_validated_set_raises () =
  (* The registration-time effect certifier rejects this very lie
     (bytecode write not covered by the declared f^rw). An uncertified
     registry lets it through, so the *runtime* accounting check is the
     one under test; [Framework.create] always certifies, so the
     deployment is built by hand: one server and one site at CA. *)
  let e = Engine.create ~seed:11 () in
  Engine.run e (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let registry = Radical.Registry.create ~certify:false () in
      List.iter
        (fun r -> if Result.is_error r then Alcotest.fail "registration")
        (Radical.Registry.register_manual registry sneaky_fn ~rw_func:sneaky_rw
        :: List.map (Radical.Registry.register registry) funcs);
      let kv = Kv.create () in
      Kv.load kv data;
      let directory = Shard.Directory.hash ~shards:1 in
      let server =
        Server.create ~net ~registry ~kv ~shard:0 ~directory
          Server.default_config
      in
      let rt =
        Runtime.create ~net ~registry ~cache:(Cache.create ())
          ~router:(Shard.Router.create directory) ~servers:[ server ]
          {
            loc = Location.ca;
            overlap = true;
            ro_fast = true;
            fu_window = 0.0;
            fu_piggyback = false;
          }
      in
      (match Runtime.invoke rt "sneaky" [ Dval.Str "u1" ] with
      | exception Invalid_argument msg ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            m = 0 || go 0
          in
          Alcotest.(check bool) "names the unvalidated key" true
            (contains msg "sneak:b:")
      | o ->
          Alcotest.fail
            ("expected Invalid_argument, got a "
            ^ (match o.path with
              | Runtime.Speculative -> "speculative"
              | Runtime.Backup -> "backup"
              | Runtime.Fallback -> "fallback"
              | Runtime.Local -> "local")
            ^ " outcome"));
      Server.stop server)

(* --- Chaos smoke ------------------------------------------------------- *)

(* 20 seeds of the propagation-chaos template (lost, duplicated and
   delayed cache_update messages, plus a low-probability duplicate
   window over every protocol message) against a propagation-enabled
   deployment: zero violations, deterministic replays. *)
let test_propagation_chaos_smoke () =
  let template =
    match Chaos.Plan.find_template "propagation-chaos" with
    | Some t -> t
    | None -> Alcotest.fail "propagation-chaos template missing"
  in
  let config =
    {
      Experiments.Campaign.default_config with
      deployment =
        Radical.Deployment.config
          ~base:Experiments.Campaign.default_config.deployment [ Propagating ];
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
  Alcotest.run "propagation"
    [
      ( "freshness",
        [
          Alcotest.test_case "remote read validates after propagation" `Quick
            test_remote_read_validates_after_propagation;
          Alcotest.test_case "off is seed behaviour" `Quick
            test_propagation_off_is_seed_behaviour;
          Alcotest.test_case "origin not reinstalled" `Quick
            test_origin_not_reinstalled;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "monotonic under duplication and reorder" `Quick
            test_monotonic_under_duplication_and_reorder;
          Alcotest.test_case "lost updates degrade to seed behaviour" `Quick
            test_lost_updates_degrade_to_seed_behaviour;
          Alcotest.test_case "invalidate-only evicts stale entries" `Quick
            test_invalidate_only_evicts_stale_entries;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "duplicate lvi delivery processed once" `Quick
            test_duplicate_lvi_delivery_processed_once;
          Alcotest.test_case "late duplicate replayed, then forgotten" `Quick
            test_late_duplicate_replayed_then_forgotten;
          Alcotest.test_case "copy after the ack is a tombstone" `Quick
            test_duplicate_after_ack_gets_tombstone;
          Alcotest.test_case "copy before the ack gets the reply" `Quick
            test_duplicate_before_ack_gets_full_reply;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "write outside validated set raises" `Quick
            test_write_outside_validated_set_raises;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "propagation-chaos 20-seed smoke" `Slow
            test_propagation_chaos_smoke;
        ] );
    ]
