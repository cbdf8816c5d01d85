(* End-to-end tests of the Radical framework and the LVI protocol:
   speculation, validation, write intents, deterministic re-execution,
   failure injection, and linearizability of whole histories. *)

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
  { fn_name = "get"; params = [ "k" ]; body = Compute (100.0, Read (Input "k")) }

let put_fn =
  {
    fn_name = "put";
    params = [ "k"; "v" ];
    body = Compute (20.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
  }

(* Read-modify-write: the LVI request must validate the read even though
   the key takes a write lock. *)
let incr_fn =
  {
    fn_name = "incr";
    params = [ "k" ];
    body =
      Let
        ( "cur",
          Read (Input "k"),
          Let
            ( "next",
              Binop (Add, If (Var "cur", Var "cur", Int 0L), Int 1L),
              Seq [ Write (Input "k", Var "next"); Var "next" ] ) );
  }

let opaque_fn =
  { fn_name = "mystery"; params = []; body = Compute (30.0, Read (Opaque (Str "x"))) }

let funcs = [ get_fn; put_fn; incr_fn; opaque_fn ]

let data = [ ("x", Dval.Str "v1"); ("ctr", Dval.int 0) ]

(* --- Harness --------------------------------------------------------- *)

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

(* --- Registration ---------------------------------------------------- *)

let test_registration_rejects_nondeterminism () =
  let bad = { fn_name = "clock"; params = []; body = Time_now } in
  with_radical (fun net _ ->
      match Framework.create ~net ~funcs:[ bad ] ~data:[] () with
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "mentions validation" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected registration failure")

let test_unanalyzable_registers_with_fallback () =
  with_radical (fun _ fw ->
      match Radical.Registry.find (Framework.registry fw) "mystery" with
      | Some entry ->
          Alcotest.(check bool) "no derived f^rw" true (entry.derived = None)
      | None -> Alcotest.fail "mystery not registered")

(* --- Happy paths ------------------------------------------------------ *)

let test_speculative_read () =
  with_radical (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "validated speculation" Runtime.Speculative o;
      check_dval "cache value returned" (Dval.Str "v1") (ok_value o);
      (* invoke 12 + f^rw 1 + max(speculation = 6 cache + 100 compute,
         LVI = 68 rtt + 6 version check) = 119 *)
      Alcotest.(check (float 0.2)) "deterministic latency" 119.0 o.latency;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "validated" 1 st.validated;
      Alcotest.(check int) "no locks held after read-only" 0
        (Server.locks_held (Framework.server fw)))

(* --- Read-only LVI fast path ----------------------------------------- *)

let test_ro_fast_path_taken () =
  with_radical (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "validated speculation" Runtime.Speculative o;
      (* Same latency as the locked path: versions are checked at the
         same storage instant either way (test_speculative_read pins
         119.0); the fast path saves lock state, not simulated time. *)
      Alcotest.(check (float 0.2)) "latency unchanged" 119.0 o.latency;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "read-only fast path taken" 1 st.ro_fast;
      Alcotest.(check int) "still counts as validated" 1 st.validated;
      let rt = Framework.runtime fw Location.ca in
      Alcotest.(check int) "runtime sent the hint" 1
        (Runtime.stats rt).ro_hints;
      (* A write must never take it, hint or not. *)
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      Engine.sleep 200.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "write stayed on the locked path" 1 st.ro_fast;
      (* And a read-modify-write neither. *)
      let _ = Framework.invoke fw ~from:Location.ca "incr" [ Dval.Str "ctr" ] in
      Engine.sleep 200.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "rmw stayed on the locked path" 1 st.ro_fast)

let test_ro_fast_disabled_ablation () =
  let config = { Framework.default_config with ro_fast = false } in
  with_radical ~config (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "still speculative" Runtime.Speculative o;
      Alcotest.(check (float 0.2)) "same latency on the locked path" 119.0
        o.latency;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "fast path never taken" 0 st.ro_fast;
      Alcotest.(check int) "validated the locked way" 1 st.validated;
      let rt = Framework.runtime fw Location.ca in
      Alcotest.(check int) "no hints sent" 0 (Runtime.stats rt).ro_hints)

let test_ro_fast_stale_cache_falls_through () =
  with_radical (fun _ fw ->
      (* Write from one site, then read from a site whose cache is still
         stale: the fast path's version check must fail and the locked
         path must repair the cache, exactly like the slow path does. *)
      let _ =
        Framework.invoke fw ~from:Location.va "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 200.0;
      let o = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "stale read takes backup" Runtime.Backup o;
      check_dval "fresh value" (Dval.Str "new") (ok_value o);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "fast path refused the stale read" 0 st.ro_fast;
      (* Cache repaired: the next read takes the fast path. *)
      let o2 = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "repaired cache validates" Runtime.Speculative o2;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "now fast-pathed" 1 st.ro_fast)

let test_speculative_write_and_followup () =
  with_radical (fun _ fw ->
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "v2" ]
      in
      check_path "validated write" Runtime.Speculative o;
      (* Blind write: LVI dominates (68 rtt + 6 versions + 6 intent). *)
      Alcotest.(check (float 0.2)) "write latency" 93.0 o.latency;
      Engine.sleep 200.0;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; version } ->
          check_dval "followup applied" (Dval.Str "v2") value;
          Alcotest.(check int) "version bumped once" 2 version
      | None -> Alcotest.fail "x missing");
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "followup applied" 1 st.followups_applied;
      Alcotest.(check int) "no re-execution" 0 st.reexecutions;
      Alcotest.(check int) "locks released" 0
        (Server.locks_held (Framework.server fw));
      Alcotest.(check int) "no pending intents" 0
        (Server.pending_intents (Framework.server fw)))

let test_cross_site_read_after_write () =
  with_radical (fun _ fw ->
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "new" ]
      in
      Engine.sleep 300.0;
      (* DE's cache still has version 1: validation must fail and return
         the fresh value. *)
      let o1 = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "stale cache detected" Runtime.Backup o1;
      check_dval "fresh value" (Dval.Str "new") (ok_value o1);
      (* The mismatch response repaired DE's cache. *)
      let o2 = Framework.invoke fw ~from:Location.de "get" [ Dval.Str "x" ] in
      check_path "repaired cache validates" Runtime.Speculative o2;
      check_dval "still fresh" (Dval.Str "new") (ok_value o2))

let test_cache_miss_suppresses_speculation () =
  with_radical (fun _ fw ->
      let o1 = Framework.invoke fw ~from:Location.ie "get" [ Dval.Str "nope" ] in
      check_path "miss forces backup" Runtime.Backup o1;
      check_dval "absent key reads unit" Dval.Unit (ok_value o1);
      let rt = Framework.runtime fw Location.ie in
      Alcotest.(check int) "speculation skipped" 1
        (Runtime.stats rt).skipped_speculations;
      (* The miss response cached (Unit, version 0): next time validates. *)
      let o2 = Framework.invoke fw ~from:Location.ie "get" [ Dval.Str "nope" ] in
      check_path "absent key now validates" Runtime.Speculative o2)

let test_cold_cache_bootstrap () =
  let config = { Framework.default_config with warm_caches = false } in
  with_radical ~config (fun _ fw ->
      let o1 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      check_path "cold cache backup" Runtime.Backup o1;
      let o2 = Framework.invoke fw ~from:Location.jp "get" [ Dval.Str "x" ] in
      check_path "bootstrapped" Runtime.Speculative o2)

(* Regression: the caches were warmed from the seed list in order, with
   the version read from the primary, so a duplicated key cached the
   first value at the primary's version of the last one and a read
   validated the value the primary never held. *)
let test_duplicate_seed_key_warms_primary_value () =
  let data = [ ("k:a", Dval.Str "first"); ("k:a", Dval.Str "second") ] in
  with_radical ~data (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "k:a" ] in
      check_path "warm cache validates" Runtime.Speculative o;
      check_dval "the primary's value" (Dval.Str "second") (ok_value o))

let cache_contents fw loc =
  Cache.snapshot (Runtime.cache (Framework.runtime fw loc))
  |> List.map (fun (k, v, ver) -> (k, Dval.to_string v, ver))
  |> List.sort compare

let primary_contents fw =
  List.sort_uniq compare (List.map fst data)
  |> List.filter_map (fun k ->
         Option.map
           (fun { Kv.value; version } -> (k, Dval.to_string value, version))
           (Kv.peek (Framework.primary fw) k))

let contents = Alcotest.(list (triple string string int))

(* Every site starts with its own copy of the primary's seed records: a
   change to one site's cache reaches neither another site nor the
   primary. *)
let test_warm_caches_are_independent_copies () =
  with_radical (fun _ fw ->
      let primary = primary_contents fw in
      Alcotest.(check int) "primary holds the seed" 2 (List.length primary);
      List.iter
        (fun loc -> Alcotest.check contents loc primary (cache_contents fw loc))
        (Framework.locations fw);
      let ca = Runtime.cache (Framework.runtime fw Location.ca) in
      let others_unchanged what =
        Alcotest.check contents (what ^ ": primary") primary (primary_contents fw);
        List.iter
          (fun loc ->
            if loc <> Location.ca then
              Alcotest.check contents (what ^ ": " ^ loc) primary
                (cache_contents fw loc))
          (Framework.locations fw)
      in
      Cache.update ca "x" (Dval.Str "local") ~version:9;
      others_unchanged "update";
      Alcotest.(check bool) "invalidated" true (Cache.invalidate ca "ctr" ~version:9);
      others_unchanged "invalidate";
      Cache.wipe ca;
      others_unchanged "wipe")

let test_cold_caches_start_empty () =
  let config = { Framework.default_config with warm_caches = false } in
  with_radical ~config (fun _ fw ->
      List.iter
        (fun loc ->
          Alcotest.(check int) loc 0
            (Cache.size (Runtime.cache (Framework.runtime fw loc))))
        (Framework.locations fw))

let test_cache_wipe_recovers () =
  with_radical (fun _ fw ->
      let rt = Framework.runtime fw Location.ca in
      let o1 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "warm" Runtime.Speculative o1;
      Cache.wipe (Runtime.cache rt);
      let o2 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "wiped cache misses" Runtime.Backup o2;
      let o3 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      check_path "recovered" Runtime.Speculative o3)

let test_fallback_for_unanalyzable () =
  with_radical (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.de "mystery" [] in
      check_path "fallback" Runtime.Fallback o;
      check_dval "reads x near storage" (Dval.Str "v1") (ok_value o);
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "direct execution" 1 st.direct_executions)

(* Direct executions acknowledge their replies too: a site that only
   sends them carries each ack on its next request, so neither its ack
   buffer nor the server's held replies grow with the number of calls. *)
let test_direct_only_site_acks_bounded () =
  with_radical (fun _ fw ->
      let rt = Framework.runtime fw Location.de in
      let server = Framework.server fw in
      for _ = 1 to 20 do
        let o = Framework.invoke fw ~from:Location.de "mystery" [] in
        check_path "fallback" Runtime.Fallback o;
        Alcotest.(check int) "only the last call unacked" 1
          (Runtime.pending_acks rt);
        Alcotest.(check int) "only the last reply held" 1
          (Server.held_replies server)
      done;
      Alcotest.(check int) "every call executed" 20
        (Server.stats server).direct_executions;
      Alcotest.(check int) "every entry kept for dedup" 20
        (Server.dedup_entries server))

let test_expensive_runs_near_storage () =
  (* A key derived from heavy computation: f^rw would cost as much as f,
     so the framework always executes near storage (§3.3). *)
  let mine =
    {
      fn_name = "mine";
      params = [ "seed" ];
      body =
        Read (Concat [ Str "k:"; Str_of_int (Compute (200.0, Input "seed")) ]);
    }
  in
  with_radical ~funcs:(mine :: funcs) (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "mine" [ Dval.int 3 ] in
      check_path "expensive goes near storage" Runtime.Fallback o)

let test_unknown_function_raises () =
  with_radical (fun _ fw ->
      match Framework.invoke fw ~from:Location.ca "nope" [] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let test_pure_compute_function () =
  (* No storage accesses at all: the LVI request carries an empty set,
     validation is trivially true, no locks, no intent. *)
  let pure =
    {
      fn_name = "pure";
      params = [ "n" ];
      body = Compute (80.0, Binop (Mul, Input "n", Int 2L));
    }
  in
  with_radical ~funcs:(pure :: funcs) (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.de "pure" [ Dval.int 21 ] in
      check_path "speculative" Runtime.Speculative o;
      check_dval "result" (Dval.int 42) (ok_value o);
      Alcotest.(check int) "no locks" 0 (Server.locks_held (Framework.server fw));
      Alcotest.(check int) "no intents" 0
        (Server.pending_intents (Framework.server fw)))

let test_wide_write_set () =
  (* A fan-out of 40 writes: sorted multi-lock acquisition, one intent,
     one followup carrying all of them. *)
  let fanout =
    {
      fn_name = "fanout";
      params = [ "tag" ];
      body =
        Compute
          ( 30.0,
            Seq
              (List.init 40 (fun i ->
                   Write
                     ( Concat
                         [ Str (Printf.sprintf "wide:%02d:" i); Input "tag" ],
                       Input "tag" ))) );
    }
  in
  with_radical ~funcs:(fanout :: funcs) (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ie "fanout" [ Dval.Str "t" ] in
      check_path "speculative" Runtime.Speculative o;
      Engine.sleep 1000.0;
      let kv = Framework.primary fw in
      for i = 0 to 39 do
        match Kv.peek kv (Printf.sprintf "wide:%02d:t" i) with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "write %d missing" i)
      done;
      Alcotest.(check int) "locks released" 0
        (Server.locks_held (Framework.server fw)))

(* --- Failure injection ------------------------------------------------ *)

let drop_nth_followup net n =
  let count = ref 0 in
  ignore
    (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
         if String.equal label "followup" then begin
           incr count;
           if !count = n then Transport.Drop else Transport.Deliver
         end
         else Transport.Deliver)
      : int)

let test_dropped_followup_triggers_reexecution () =
  with_radical (fun net fw ->
      drop_nth_followup net 1;
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "vlost" ]
      in
      check_path "client already answered" Runtime.Speculative o;
      (* Wait out the intent timer. *)
      Engine.sleep 2500.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "re-execution ran" 1 st.reexecutions;
      Alcotest.(check int) "no followup applied" 0 st.followups_applied;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; version } ->
          check_dval "write recovered" (Dval.Str "vlost") value;
          Alcotest.(check int) "applied exactly once" 2 version
      | None -> Alcotest.fail "x missing");
      Alcotest.(check int) "locks released" 0
        (Server.locks_held (Framework.server fw));
      Alcotest.(check int) "intent resolved" 0
        (Server.pending_intents (Framework.server fw)))

let test_late_followup_discarded () =
  with_radical (fun net fw ->
      let count = ref 0 in
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if String.equal label "followup" then begin
               incr count;
               if !count = 1 then Transport.Delay 3000.0 else Transport.Deliver
             end
             else Transport.Deliver)
          : int);
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "vlate" ]
      in
      Engine.sleep 6000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "re-execution won" 1 st.reexecutions;
      Alcotest.(check int) "late followup discarded" 1 st.followups_discarded;
      match Kv.peek (Framework.primary fw) "x" with
      | Some { version; _ } ->
          (* Re-execution applied once; the late followup must not bump
             the version a second time. *)
          Alcotest.(check int) "applied exactly once" 2 version
      | None -> Alcotest.fail "x missing")

let test_write_lock_blocks_until_followup () =
  with_radical (fun _ fw ->
      Framework.record_history fw;
      (* Two increments racing from different sites must serialize. *)
      let done1 = Ivar.create () and done2 = Ivar.create () in
      Engine.spawn (fun () ->
          Ivar.fill done1 (Framework.invoke fw ~from:Location.ca "incr" [ Dval.Str "ctr" ]));
      Engine.spawn (fun () ->
          Ivar.fill done2 (Framework.invoke fw ~from:Location.de "incr" [ Dval.Str "ctr" ]));
      let o1 = Ivar.read done1 and o2 = Ivar.read done2 in
      Engine.sleep 2000.0;
      let final =
        match Kv.peek (Framework.primary fw) "ctr" with
        | Some { value; _ } -> value
        | None -> Dval.Unit
      in
      check_dval "both increments survive" (Dval.int 2) final;
      let returned = List.sort compare [ ok_value o1; ok_value o2 ] in
      Alcotest.(check (list string)) "clients saw 1 and 2"
        [ "1"; "2" ]
        (List.map Dval.to_string returned);
      Alcotest.(check bool) "history is linearizable" true
        (Lincheck.check ~init:data (Framework.history fw)))

(* --- Linearizability under churn -------------------------------------- *)

let prop_linearizable_history =
  QCheck.Test.make ~name:"random concurrent workloads are linearizable"
    ~count:15
    QCheck.(pair small_int (list_of_size Gen.(5 -- 12) (int_range 0 99)))
    (fun (seed, choices) ->
      let ok = ref true in
      let e = Engine.create ~seed:(seed + 100) () in
      Engine.run e (fun () ->
          let net =
            Transport.create ~jitter_sigma:0.05
              ~rng:(Rng.split (Engine.rng ()))
              ()
          in
          let fw = Framework.create ~net ~funcs ~data () in
          Framework.record_history fw;
          let rng = Rng.split (Engine.rng ()) in
          (* Adversarial network: ~25% of followups drop (forcing
             re-execution), and any other protocol message may be
             delayed up to 400 ms, reordering the schedule. *)
          ignore
            (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
                 if String.equal label "followup" && Rng.int rng 4 = 0 then
                   Transport.Drop
                 else if Rng.int rng 5 = 0 then
                   Transport.Delay (Rng.float rng 400.0)
                 else Transport.Deliver)
              : int);
          let sites = [ Location.ca; Location.de; Location.jp; Location.va ] in
          let pending = ref 0 in
          List.iteri
            (fun i c ->
              incr pending;
              Engine.spawn (fun () ->
                  Engine.sleep (float_of_int i *. Rng.float rng 40.0);
                  let from = List.nth sites (c mod List.length sites) in
                  let key = if c mod 3 = 0 then "x" else "ctr" in
                  let _ =
                    match c mod 3 with
                    | 0 ->
                        Framework.invoke fw ~from "put"
                          [ Dval.Str key; Dval.Str (Printf.sprintf "v%d" c) ]
                    | 1 -> Framework.invoke fw ~from "incr" [ Dval.Str key ]
                    | _ -> Framework.invoke fw ~from "get" [ Dval.Str key ]
                  in
                  decr pending))
            choices;
          (* Let every invocation, followup and intent timer resolve. *)
          Engine.sleep 20000.0;
          if !pending <> 0 then ok := false;
          if not (Lincheck.check ~init:data (Framework.history fw)) then
            ok := false;
          if Server.locks_held (Framework.server fw) <> 0 then ok := false;
          if Server.pending_intents (Framework.server fw) <> 0 then ok := false;
          Framework.stop fw);
      !ok)

(* --- Replicated server (§5.6) ----------------------------------------- *)

let test_replicated_server () =
  let config =
    {
      Framework.default_config with
      server =
        { Server.default_config with mode = Server.Replicated { az_rtt = 1.5 } };
    }
  in
  with_radical ~config (fun net fw ->
      (* Let the Raft cluster elect a leader. *)
      Engine.sleep 500.0;
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "r1" ]
      in
      check_path "works through raft-backed locks" Runtime.Speculative o;
      Engine.sleep 500.0;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; _ } -> check_dval "applied" (Dval.Str "r1") value
      | None -> Alcotest.fail "x missing");
      (* At-most-once near storage under a dropped followup. *)
      drop_nth_followup net 1;
      let _ =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "r2" ]
      in
      Engine.sleep 4000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "one re-execution" 1 st.reexecutions;
      match Kv.peek (Framework.primary fw) "x" with
      | Some { value; version } ->
          check_dval "recovered" (Dval.Str "r2") value;
          Alcotest.(check int) "exactly once" 3 version
      | None -> Alcotest.fail "x missing")

(* Regression: a key that is both read and written (incr reads "ctr"
   and writes it back) was passed twice to [persist_unlocks] — once from
   the writes, once from the reads — appending a redundant [Del] to the
   replicated lock log on every release. Both release sites (followup
   and orphaned-intent re-execution) must emit exactly one [Del] per
   persisted [Set]. *)
let test_replicated_unlock_dedupe () =
  let config =
    {
      Framework.default_config with
      server =
        { Server.default_config with mode = Server.Replicated { az_rtt = 1.5 } };
    }
  in
  with_radical ~config (fun net fw ->
      let cluster = Option.get (Server.raft_cluster (Framework.server fw)) in
      (* The cluster keeps no applied history: collect each node's
         applied commands by log index. *)
      let applied = Hashtbl.create 64 in
      Radical.Raft_locks.on_apply cluster (fun node idx cmd ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt applied (node, idx)) in
          Hashtbl.replace applied (node, idx) (cmd :: prev));
      Engine.sleep 500.0 (* leader election *);
      (* Release via the followup path. *)
      let o = Framework.invoke fw ~from:Location.ca "incr" [ Dval.Str "ctr" ] in
      check_path "raft-backed incr" Runtime.Speculative o;
      Engine.sleep 1000.0;
      (* Release via the orphaned-intent path: drop the followup and let
         the intent timer trigger deterministic re-execution. *)
      drop_nth_followup net 1;
      let _ = Framework.invoke fw ~from:Location.ca "incr" [ Dval.Str "ctr" ] in
      Engine.sleep 4000.0;
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "re-execution ran" 1 st.reexecutions;
      let node = Option.get (Radical.Raft_locks.leader cluster) in
      let sets, dels =
        Hashtbl.fold
          (fun (n, _) cmds acc ->
            if n <> node then acc
            else
              List.fold_left
                (fun (s, d) cmd ->
                  match cmd with
                  | Raft.Kvsm.Set (k, _) when k = "lock:ctr" -> (s + 1, d)
                  | Raft.Kvsm.Del k when k = "lock:ctr" -> (s, d + 1)
                  | _ -> (s, d))
                acc cmds)
          applied (0, 0)
      in
      Alcotest.(check bool) "both acquisitions persisted" true (sets >= 2);
      Alcotest.(check int) "exactly one Del per Set" sets dels)

(* --- Batching (group commit, admission, followup coalescing) --------- *)

(* Every batching knob on at once against a replicated server: group
   commit on the lock log, windowed lock persistence, conflict-aware
   admission, followup window + piggyback. The protocol must stay
   correct (linearizable, locks drained) and the batching machinery must
   actually engage. *)
let test_batching_full_stack () =
  let config =
    {
      Framework.default_config with
      server =
        {
          Server.default_config with
          mode = Server.Replicated { az_rtt = 1.5 };
          batching = Server.full_batching;
        };
      fu_window = 2.0;
      fu_piggyback = true;
    }
  in
  with_radical ~config (fun _ fw ->
      Engine.sleep 800.0 (* leader election *);
      Framework.record_history fw;
      let sites = [ Location.ca; Location.de; Location.jp ] in
      let pending = ref 0 in
      List.iteri
        (fun i from ->
          incr pending;
          Engine.spawn (fun () ->
              let _ =
                Framework.invoke fw ~from "put"
                  [ Dval.Str (Printf.sprintf "site%d" i); Dval.Str "v" ]
              in
              let _ = Framework.invoke fw ~from "incr" [ Dval.Str "ctr" ] in
              let _ = Framework.invoke fw ~from "get" [ Dval.Str "x" ] in
              decr pending))
        sites;
      Engine.sleep 20_000.0;
      Alcotest.(check int) "all invocations completed" 0 !pending;
      (match Kv.peek (Framework.primary fw) "ctr" with
      | Some { value; _ } -> check_dval "all increments survive" (Dval.int 3) value
      | None -> Alcotest.fail "ctr missing");
      List.iteri
        (fun i _ ->
          match Kv.peek (Framework.primary fw) (Printf.sprintf "site%d" i) with
          | Some _ -> ()
          | None -> Alcotest.fail (Printf.sprintf "site%d write lost" i))
        sites;
      Alcotest.(check bool) "history is linearizable" true
        (Lincheck.check ~init:data (Framework.history fw));
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check int) "locks drained" 0
        (Server.locks_held (Framework.server fw));
      Alcotest.(check int) "no orphaned intents" 0
        (Server.pending_intents (Framework.server fw));
      Alcotest.(check bool) "windowed persistence engaged" true
        (st.persist_flushes > 0);
      let rt_piggy =
        List.fold_left
          (fun acc loc -> acc + (Runtime.stats (Framework.runtime fw loc)).fu_piggybacked)
          0 sites
      in
      let rt_batches =
        List.fold_left
          (fun acc loc -> acc + (Runtime.stats (Framework.runtime fw loc)).fu_batches)
          0 sites
      in
      Alcotest.(check bool) "followups coalesced or piggybacked" true
        (rt_piggy + rt_batches > 0))

(* Conflict-aware admission alone (singleton server): concurrent
   same-key increments must wait on each other (and stay correct), while
   writes to disjoint keys pass the dynamic overlap check without
   queueing behind them. *)
let test_admission_gates_conflicts () =
  let config =
    {
      Framework.default_config with
      server =
        {
          Server.default_config with
          batching = { Server.no_batching with admission = true };
        };
    }
  in
  with_radical ~config (fun _ fw ->
      Framework.record_history fw;
      let outs = ref [] in
      let spawn_invoke from fn args =
        Engine.spawn (fun () ->
            let o = Framework.invoke fw ~from fn args in
            outs := o :: !outs)
      in
      (* Three same-key increments: the second blocks on the lock table
         while still inside admission, so the third — arriving during
         that window — must wait in the admission queue (the first
         enters and leaves admission before the others even arrive).
         The disjoint put passes the dynamic overlap check. *)
      spawn_invoke Location.ca "incr" [ Dval.Str "ctr" ];
      spawn_invoke Location.de "incr" [ Dval.Str "ctr" ];
      spawn_invoke Location.jp "incr" [ Dval.Str "ctr" ];
      spawn_invoke Location.va "put" [ Dval.Str "w"; Dval.Str "2" ];
      Engine.sleep 5000.0;
      Alcotest.(check int) "all four done" 4 (List.length !outs);
      List.iter (fun o -> ignore (ok_value o)) !outs;
      (match Kv.peek (Framework.primary fw) "ctr" with
      | Some { value; _ } -> check_dval "increments serialized" (Dval.int 3) value
      | None -> Alcotest.fail "ctr missing");
      Alcotest.(check bool) "history is linearizable" true
        (Lincheck.check ~init:data (Framework.history fw));
      let st = Server.stats (Framework.server fw) in
      Alcotest.(check bool) "conflicting incr waited" true
        (st.admission_waits >= 1);
      Alcotest.(check bool) "disjoint writes did not all wait" true
        (st.admission_waits < 4);
      Alcotest.(check int) "admission queue drained" 0
        (Server.locks_held (Framework.server fw)))

(* The followup Nagle window: two speculative writes completing within
   one window leave the site as a single coalesced followup message, and
   the buffered writes still reach the primary. *)
let test_followup_window_coalesces () =
  let config = { Framework.default_config with fu_window = 5.0 } in
  with_radical ~config (fun _ fw ->
      let pending = ref 2 in
      Engine.spawn (fun () ->
          let _ =
            Framework.invoke fw ~from:Location.ca "put"
              [ Dval.Str "x"; Dval.Str "a" ]
          in
          decr pending);
      Engine.spawn (fun () ->
          let _ =
            Framework.invoke fw ~from:Location.ca "put"
              [ Dval.Str "y"; Dval.Str "b" ]
          in
          decr pending);
      Engine.sleep 2000.0;
      Alcotest.(check int) "both done" 0 !pending;
      let st = Runtime.stats (Framework.runtime fw Location.ca) in
      Alcotest.(check int) "one coalesced followup message" 1 st.fu_batches;
      (match Kv.peek (Framework.primary fw) "x" with
      | Some { value; _ } -> check_dval "x landed" (Dval.Str "a") value
      | None -> Alcotest.fail "x missing");
      match Kv.peek (Framework.primary fw) "y" with
      | Some { value; _ } -> check_dval "y landed" (Dval.Str "b") value
      | None -> Alcotest.fail "y missing")

(* Piggybacking: with a window far wider than the inter-request gap, a
   buffered followup rides the next outgoing LVI request instead of
   waiting for the timer — the primary sees the write well before the
   window expires, carried for free. *)
let test_followup_piggyback () =
  let config =
    { Framework.default_config with fu_window = 5000.0; fu_piggyback = true }
  in
  with_radical ~config (fun _ fw ->
      let t0 = Engine.now () in
      let o =
        Framework.invoke fw ~from:Location.ca "put"
          [ Dval.Str "x"; Dval.Str "rode" ]
      in
      check_path "speculative put" Runtime.Speculative o;
      (* The followup is buffered; this next request carries it. *)
      let _ = Framework.invoke fw ~from:Location.ca "incr" [ Dval.Str "ctr" ] in
      Alcotest.(check bool) "well before the window timer" true
        (Engine.now () -. t0 < 1000.0);
      let st = Runtime.stats (Framework.runtime fw Location.ca) in
      Alcotest.(check int) "followup piggybacked" 1 st.fu_piggybacked;
      match Kv.peek (Framework.primary fw) "x" with
      | Some { value; _ } ->
          check_dval "carried write applied first" (Dval.Str "rode") value
      | None -> Alcotest.fail "x missing")

let test_prediction_failure_falls_back () =
  let broken =
    {
      fn_name = "broken-key";
      params = [];
      body = Read (Nth (List_lit [], Int 0L));
    }
  in
  with_radical ~funcs:(broken :: funcs) (fun _ fw ->
      let o = Framework.invoke fw ~from:Location.ca "broken-key" [] in
      check_path "fallback on f^rw fault" Runtime.Fallback o;
      match o.value with
      | Error _ -> () (* the function itself faults near storage too *)
      | Ok v -> Alcotest.fail ("expected error, got " ^ Dval.to_string v))

(* --- Bounded state ---------------------------------------------------- *)

(* Steady-state server memory must not grow with run length: dedup
   entries are forgotten once the message lifetime has passed, and the
   Raft lock log compacts. Run the same open loop for 30 s and for 90 s
   of virtual time and sample both tables every second: each stays
   below rate x (lifetime + 1 s), and the longer run holds no more than
   the shorter one plus Poisson noise. Of the dedup entries, only those
   whose client has not yet acknowledged the reply still hold a
   response: at most rate x 1 s of them. *)
let soak_peaks ~seconds =
  let rate = 100.0 in
  let config =
    {
      Framework.default_config with
      server =
        {
          Server.default_config with
          mode = Server.Replicated { az_rtt = 1.5 };
          batching = Server.full_batching;
        };
    }
  in
  let peak_dedup = ref 0 and peak_held = ref 0 and peak_raft = ref 0 in
  with_radical ~config (fun _ fw ->
      let server = Framework.server fw in
      let cluster = Option.get (Server.raft_cluster server) in
      Engine.sleep 800.0 (* leader election *);
      let running = ref true in
      Engine.spawn (fun () ->
          while !running do
            Engine.sleep 1000.0;
            peak_dedup := max !peak_dedup (Server.dedup_entries server);
            peak_held := max !peak_held (Server.held_replies server);
            for id = 0 to Radical.Raft_locks.size cluster - 1 do
              peak_raft :=
                max !peak_raft (Radical.Raft_locks.stored_entries cluster id)
            done
          done);
      let sites = Array.of_list Location.user_locations in
      let n =
        Workload.Driver.run_open ~rate ~duration:(seconds *. 1000.0)
          ~rng:(Rng.create 5) (fun ~arrival ->
            let from = sites.(arrival mod Array.length sites) in
            let key = Dval.Str (Printf.sprintf "k%d" (arrival mod 16)) in
            ignore
              (if arrival mod 2 = 0 then Framework.invoke fw ~from "incr" [ key ]
               else Framework.invoke fw ~from "get" [ key ]))
      in
      running := false;
      Alcotest.(check bool) "load ran" true (n > int_of_float (rate *. seconds /. 2.0));
      Alcotest.(check int) "locks drained" 0 (Server.locks_held server));
  (!peak_dedup, !peak_held, !peak_raft)

let test_bounded_state_soak () =
  let bound = int_of_float (100.0 *. (Transport.max_message_age +. 1000.0) /. 1000.0) in
  let dedup30, held30, raft30 = soak_peaks ~seconds:30.0 in
  let dedup90, held90, raft90 = soak_peaks ~seconds:90.0 in
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (Printf.sprintf "%s = %d <= 100" what v) true (v <= 100))
    [ ("held replies, 30 s", held30); ("held replies, 90 s", held90) ];
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (Printf.sprintf "%s = %d < %d" what v bound) true (v < bound))
    [
      ("dedup entries, 30 s", dedup30);
      ("dedup entries, 90 s", dedup90);
      ("raft stored entries, 30 s", raft30);
      ("raft stored entries, 90 s", raft90);
    ];
  let no_growth what short long =
    Alcotest.(check bool)
      (Printf.sprintf "%s: 90 s peak %d vs 30 s peak %d" what long short)
      true
      (float_of_int long <= 1.2 *. float_of_int short)
  in
  no_growth "dedup entries" dedup30 dedup90;
  no_growth "raft stored entries" raft30 raft90

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "radical"
    [
      ( "registration",
        [
          Alcotest.test_case "rejects nondeterminism" `Quick
            test_registration_rejects_nondeterminism;
          Alcotest.test_case "unanalyzable falls back" `Quick
            test_unanalyzable_registers_with_fallback;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "speculative read" `Quick test_speculative_read;
          Alcotest.test_case "read-only fast path taken" `Quick
            test_ro_fast_path_taken;
          Alcotest.test_case "read-only fast path ablation" `Quick
            test_ro_fast_disabled_ablation;
          Alcotest.test_case "fast path refuses stale cache" `Quick
            test_ro_fast_stale_cache_falls_through;
          Alcotest.test_case "speculative write + followup" `Quick
            test_speculative_write_and_followup;
          Alcotest.test_case "cross-site read-after-write" `Quick
            test_cross_site_read_after_write;
          Alcotest.test_case "cache miss suppresses speculation" `Quick
            test_cache_miss_suppresses_speculation;
          Alcotest.test_case "cold cache bootstrap" `Quick
            test_cold_cache_bootstrap;
          Alcotest.test_case "cache wipe recovers" `Quick test_cache_wipe_recovers;
          Alcotest.test_case "duplicate seed key: primary wins" `Quick
            test_duplicate_seed_key_warms_primary_value;
          Alcotest.test_case "warm caches copy the primary" `Quick
            test_warm_caches_are_independent_copies;
          Alcotest.test_case "cold caches start empty" `Quick
            test_cold_caches_start_empty;
          Alcotest.test_case "unanalyzable fallback" `Quick
            test_fallback_for_unanalyzable;
          Alcotest.test_case "direct-only site acks bounded" `Quick
            test_direct_only_site_acks_bounded;
          Alcotest.test_case "prediction failure falls back" `Quick
            test_prediction_failure_falls_back;
          Alcotest.test_case "expensive f^rw runs near storage" `Quick
            test_expensive_runs_near_storage;
          Alcotest.test_case "unknown function raises" `Quick
            test_unknown_function_raises;
          Alcotest.test_case "pure compute function" `Quick
            test_pure_compute_function;
          Alcotest.test_case "wide write set" `Quick test_wide_write_set;
        ] );
      ( "failures",
        [
          Alcotest.test_case "dropped followup re-executes" `Quick
            test_dropped_followup_triggers_reexecution;
          Alcotest.test_case "late followup discarded" `Quick
            test_late_followup_discarded;
          Alcotest.test_case "concurrent increments serialize" `Quick
            test_write_lock_blocks_until_followup;
        ]
        @ qsuite [ prop_linearizable_history ] );
      ( "replication",
        [
          Alcotest.test_case "raft-backed server" `Quick test_replicated_server;
          Alcotest.test_case "unlock persistence deduped" `Quick
            test_replicated_unlock_dedupe;
          Alcotest.test_case "bounded state over a long run" `Quick
            test_bounded_state_soak;
        ] );
      ( "batching",
        [
          Alcotest.test_case "full stack replicated" `Quick
            test_batching_full_stack;
          Alcotest.test_case "admission gates conflicts" `Quick
            test_admission_gates_conflicts;
          Alcotest.test_case "followup window coalesces" `Quick
            test_followup_window_coalesces;
          Alcotest.test_case "followup piggyback" `Quick
            test_followup_piggyback;
        ] );
    ]
