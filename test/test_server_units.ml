(* Isolation tests for the extracted server-engine layers: each test
   builds a bare [Server_state.t] — no transport services wired, no
   framework, no clients — and drives one layer directly. The full-stack
   behaviour of the same code paths is covered by test_radical,
   test_lease and the seed-identity golden; these tests pin the layer
   contracts (grant refusal rules, the settle barrier's two modes,
   propagation's origin-site exclusion, the Nagle batcher's rounds). The
   stage-hook tests run the full stack instead, since the hook's order is
   the handler's. *)

open Sim
module Transport = Net.Transport
module Location = Net.Location
module Kv = Store.Kv
module Server_config = Radical.Server_config
module Server_state = Radical.Server_state
module Lease_authority = Radical.Server_lease_authority
module Propagator = Radical.Server_propagator
module Framework = Radical.Framework
module Server = Radical.Server
module Lease = Radical.Lease
module Proto = Radical.Proto
module Batcher = Radical.Batcher

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
      ~extsvc:(Radical.Extsvc.create ()) ~shard:0
      ~directory:(Shard.Directory.hash ~shards:1) config
  in
  (net, t)

let revoke_sink net ~loc received =
  Transport.serve net ~loc ~name:"lease_revoke"
    (fun (lr : Proto.lease_revoke) -> received := lr.lr_keys :: !received)

(* --- Lease_authority: grant refusal rules ---------------------------- *)

let leases_on revoke =
  {
    Server_config.default_config with
    leases = { Server_config.default_leases with revoke };
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
            (now +. Server_config.lease_duration)
            g.Proto.lg_until
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

(* --- Server.on_stage: the LVI handler's stage hook -------------------

   Full stack: the hook must fire with each step's name, in order, just
   before the step runs, on every path a request can take. Each entry
   pairs the name with the server's lock-owner count at that instant,
   which pins "before": locks are taken in the lock step. *)

let get_fn =
  Fdsl.Ast.
    {
      fn_name = "get";
      params = [ "k" ];
      body = Compute (100.0, Read (Input "k"));
    }

let put_fn =
  Fdsl.Ast.
    {
      fn_name = "put";
      params = [ "k"; "v" ];
      body = Compute (20.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
    }

let with_stage_hook f =
  run_sim (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw =
        Framework.create ~net ~funcs:[ get_fn; put_fn ]
          ~data:[ ("x", Dval.Str "v1") ]
          ()
      in
      let server = Framework.server fw in
      let seen = ref [] in
      Server.on_stage server (fun name ->
          seen := (name, Server.locks_held server) :: !seen);
      (* The hook's calls while [invoke] runs and its followup lands. *)
      let stages ~from fn args =
        seen := [];
        ignore (Framework.invoke fw ~from fn args : Radical.Runtime.outcome);
        Engine.sleep 500.0;
        List.rev !seen
      in
      f net server stages;
      Framework.stop fw)

let check_stages msg expected got =
  Alcotest.(check (list (pair string int))) msg expected got

let locked_path = [ ("admit", 0); ("lock", 0); ("settle", 1); ("validate", 1) ]

let test_stage_hook_write () =
  with_stage_hook (fun _ _ stages ->
      check_stages "a write runs the locked path" locked_path
        (stages ~from:Location.ca "put" [ Dval.Str "x"; Dval.Str "v2" ]))

let test_stage_hook_ro_validated () =
  with_stage_hook (fun _ server stages ->
      check_stages "a fresh read-only call validates without locks"
        [ ("ro_validate", 0) ]
        (stages ~from:Location.ca "get" [ Dval.Str "x" ]);
      Alcotest.(check int) "fast path taken" 1 (Server.stats server).ro_fast)

let test_stage_hook_ro_falls_through () =
  with_stage_hook (fun _ server stages ->
      ignore (stages ~from:Location.va "put" [ Dval.Str "x"; Dval.Str "new" ]);
      (* de's cache still holds v1: the fast path refuses the stale read
         and the locked path runs behind it. *)
      check_stages "a stale read-only call falls through"
        (("ro_validate", 0) :: locked_path)
        (stages ~from:Location.de "get" [ Dval.Str "x" ]);
      Alcotest.(check int) "fast path refused" 0 (Server.stats server).ro_fast)

let test_stage_hook_duplicate () =
  with_stage_hook (fun net server stages ->
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if String.equal label "lvi" then Transport.Duplicate
             else Transport.Deliver)
          : int);
      check_stages "the duplicate fires no stage" locked_path
        (stages ~from:Location.ca "put" [ Dval.Str "x"; Dval.Str "v2" ]);
      Alcotest.(check int) "duplicate delivered" 1
        (Server.stats server).dup_deliveries)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

(* The list-scan admission the key index replaced, kept as the model:
   a newcomer waits while it conflicts with any in-flight request or
   any request queued ahead of it, and a leave admits waiters FIFO. *)
module Scan_admission = struct
  type ticket = {
    fn : string;
    reads : string list;
    writes : string list;
    mutable resume : (unit -> unit) option;
  }

  type t = {
    may_conflict : string -> string -> bool;
    mutable inflight : ticket list;
    mutable queue : ticket list;
    mutable waited : int;
  }

  let create ~may_conflict = { may_conflict; inflight = []; queue = []; waited = 0 }

  let overlap xs ys = List.exists (fun x -> List.mem x ys) xs

  let conflicts t a b =
    t.may_conflict a.fn b.fn
    && (overlap a.writes b.writes || overlap a.writes b.reads
       || overlap a.reads b.writes)

  let blocked t tk ~ahead =
    List.exists (conflicts t tk) t.inflight
    || List.exists (conflicts t tk) ahead

  let drain t =
    let rec go still = function
      | [] -> List.rev still
      | tk :: rest ->
          if blocked t tk ~ahead:still then go (tk :: still) rest
          else begin
            t.inflight <- tk :: t.inflight;
            Option.iter (fun r -> tk.resume <- None; r ()) tk.resume;
            go still rest
          end
    in
    t.queue <- go [] t.queue

  let enter t ~fn ~reads ~writes =
    let tk = { fn; reads; writes; resume = None } in
    if blocked t tk ~ahead:t.queue then begin
      t.waited <- t.waited + 1;
      t.queue <- t.queue @ [ tk ];
      Engine.suspend (fun resume -> tk.resume <- Some (fun () -> resume ()))
    end
    else t.inflight <- tk :: t.inflight;
    tk

  let leave t tk =
    t.inflight <- List.filter (fun x -> x != tk) t.inflight;
    drain t
end

type adm_op = Enter of int * int list * int list | Leave of int

(* Run [ops] against one admission: each [Enter] is a fiber that joins
   the in-flight list once admitted; a [Leave i] takes the i-th of them
   (mod their number) out. After every op, let woken fibers run and take
   the counts. Returns the admission order and the counts. *)
let drive ~enter ~leave ~counts ops =
  let admitted = ref [] and held = ref [] and snaps = ref [] in
  run_sim (fun () ->
      List.iteri
        (fun id op ->
          (match op with
          | Enter (fn, reads, writes) ->
              let key k = Printf.sprintf "k%d" k in
              Engine.spawn (fun () ->
                  let tk =
                    enter ~fn:(Printf.sprintf "f%d" fn)
                      ~reads:(List.map key reads) ~writes:(List.map key writes)
                  in
                  admitted := id :: !admitted;
                  held := !held @ [ (id, tk) ])
          | Leave i -> (
              match !held with
              | [] -> ()
              | l ->
                  let id', tk = List.nth l (i mod List.length l) in
                  held := List.filter (fun (x, _) -> x <> id') l;
                  leave tk));
          Engine.yield ();
          snaps := counts () :: !snaps)
        ops);
  (List.rev !admitted, List.rev !snaps)

let adm_case_gen =
  QCheck.Gen.(
    let keys n = list_size (int_range 0 n) (int_range 0 4) in
    let op =
      frequency
        [
          (3, map3 (fun f r w -> Enter (f, r, w)) (int_range 0 3) (keys 3) (keys 2));
          (2, map (fun i -> Leave i) (int_range 0 10));
        ]
    in
    pair (array_size (return 16) bool) (list_size (int_range 0 40) op))

let show_adm_case (m, ops) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "matrix=%s ops=%s"
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") m)))
    (String.concat "; "
       (List.map
          (function
            | Enter (f, r, w) -> Printf.sprintf "Enter f%d r[%s] w[%s]" f (ints r) (ints w)
            | Leave i -> Printf.sprintf "Leave %d" i)
          ops))

let prop_admission_matches_scan =
  QCheck.Test.make ~name:"key-indexed admission matches the list scan"
    ~count:300
    (QCheck.make ~print:show_adm_case adm_case_gen)
    (fun (m, ops) ->
      (* A symmetric static verdict over f0..f3. *)
      let may_conflict a b =
        let i = Char.code a.[1] - 48 and j = Char.code b.[1] - 48 in
        m.((4 * min i j) + max i j)
      in
      let adm = Radical.Admission.create ~may_conflict () in
      let indexed =
        drive ops
          ~enter:(fun ~fn ~reads ~writes ->
            Radical.Admission.enter adm ~fn ~reads ~writes)
          ~leave:(Radical.Admission.leave adm)
          ~counts:(fun () ->
            Radical.Admission.
              (inflight adm, waiting adm, waited adm))
      in
      let scan = Scan_admission.create ~may_conflict in
      let model =
        drive ops
          ~enter:(fun ~fn ~reads ~writes ->
            Scan_admission.enter scan ~fn ~reads ~writes)
          ~leave:(Scan_admission.leave scan)
          ~counts:(fun () ->
            Scan_admission.
              (List.length scan.inflight, List.length scan.queue, scan.waited))
      in
      indexed = model)

(* --- Batcher: Nagle rounds, take, the cap and pipelining --------------- *)

(* A batcher over ints whose flushes and on_flush observations land in
   logs, oldest first: [(flush instant, batch)] and [(size, queue
   delay)]. [flush_cost] makes each flush block for that long. *)
let logged_batcher ?(flush_cost = 0.0) ~window () =
  let flushed = ref [] and observed = ref [] in
  let b =
    Batcher.create ~window
      ~on_flush:(fun ~size ~queue_delay ->
        observed := !observed @ [ (size, queue_delay) ])
      (fun items ->
        flushed := !flushed @ [ (Engine.now (), items) ];
        if flush_cost > 0.0 then Engine.sleep flush_cost)
  in
  (b, flushed, observed)

let flush_log = Alcotest.(list (pair (float 1e-9) (list int)))

let observation_log = Alcotest.(list (pair int (float 1e-9)))

let test_batcher_window () =
  run_sim (fun () ->
      let b, flushed, observed = logged_batcher ~window:5.0 () in
      Batcher.add b [ 1 ];
      Engine.sleep 1.0;
      Batcher.add b [ 2; 3 ];
      Engine.sleep 1.0;
      Batcher.add b [ 4 ];
      Alcotest.(check flush_log) "nothing before the window" [] !flushed;
      Engine.sleep 10.0;
      Alcotest.(check flush_log)
        "one flush, in order, a window after the first add"
        [ (5.0, [ 1; 2; 3; 4 ]) ]
        !flushed;
      Alcotest.(check observation_log) "size and oldest element's delay"
        [ (4, 5.0) ] !observed;
      Alcotest.(check int) "one round" 1 (Batcher.flushes b))

let test_batcher_take () =
  run_sim (fun () ->
      let b, flushed, _ = logged_batcher ~window:5.0 () in
      Alcotest.(check (list int)) "empty take" [] (Batcher.take b);
      Batcher.add b [ 1 ];
      Engine.sleep 1.0;
      Batcher.add b [ 2 ];
      Alcotest.(check (list int)) "drained oldest first" [ 1; 2 ]
        (Batcher.take b);
      Alcotest.(check int) "a take is no flush" 0 (Batcher.flushes b);
      (* The drained round's timer (due at 5) is cancelled, so the next
         addition opens a fresh round with its own window. *)
      Engine.sleep 1.0;
      Batcher.add b [ 3 ];
      Engine.sleep 10.0;
      Alcotest.(check flush_log) "next round flushes on its own window"
        [ (7.0, [ 3 ]) ]
        !flushed)

let test_batcher_take_after_fire () =
  run_sim (fun () ->
      let b, flushed, _ = logged_batcher ~window:5.0 () in
      Batcher.add b [ 1 ];
      (* Wakes at 5 after the window timer has fired but before its
         fiber runs: [take] cannot cancel that timer any more, and the
         next addition must get a full window of its own. *)
      Engine.spawn (fun () ->
          Engine.sleep 5.0;
          Alcotest.(check (list int)) "drained the first round" [ 1 ]
            (Batcher.take b);
          Batcher.add b [ 2 ]);
      Engine.sleep 20.0;
      Alcotest.(check flush_log) "the new round flushes a window later"
        [ (10.0, [ 2 ]) ]
        !flushed)

let test_batcher_zero_window () =
  run_sim (fun () ->
      let b, flushed, observed = logged_batcher ~window:0.0 () in
      Batcher.add b [ 1 ];
      Batcher.add b [ 2 ];
      Engine.sleep 1.0;
      Batcher.add b [ 3 ];
      Engine.sleep 1.0;
      Alcotest.(check flush_log) "same-instant adds share a round"
        [ (0.0, [ 1; 2 ]); (1.0, [ 3 ]) ]
        !flushed;
      Alcotest.(check observation_log) "no queueing delay"
        [ (2, 0.0); (1, 0.0) ]
        !observed)

let test_batcher_pipelines () =
  run_sim (fun () ->
      let b, flushed, observed =
        logged_batcher ~flush_cost:10.0 ~window:1.0 ()
      in
      let woke = ref [] in
      let submitter ~at x =
        Engine.spawn (fun () ->
            Engine.sleep at;
            Batcher.submit_all b [ x ];
            woke := !woke @ [ (x, Engine.now ()) ])
      in
      submitter ~at:0.0 1;
      submitter ~at:2.0 2;
      submitter ~at:3.0 3;
      Engine.sleep 50.0;
      (* Round 1 flushes at 1 and blocks until 11; 2 and 3 fill round 2
         behind it, which flushes a window later and blocks until 22. *)
      Alcotest.(check flush_log) "second round filled during the first"
        [ (1.0, [ 1 ]); (12.0, [ 2; 3 ]) ]
        !flushed;
      Alcotest.(check (list (pair int (float 1e-9))))
        "each submitter wakes after its own round"
        [ (1, 11.0); (2, 22.0); (3, 22.0) ]
        !woke;
      Alcotest.(check observation_log) "round 2 waited behind round 1"
        [ (1, 1.0); (2, 10.0) ]
        !observed)

let test_batcher_cap () =
  run_sim (fun () ->
      let b, flushed, _ = logged_batcher ~window:1000.0 () in
      Batcher.add b (List.init (Batcher.max_batch - 1) Fun.id);
      Alcotest.(check int) "under the cap: buffered" 0 (Batcher.flushes b);
      Batcher.add b [ Batcher.max_batch - 1 ];
      Alcotest.(check flush_log) "the cap flushes at once"
        [ (0.0, List.init Batcher.max_batch Fun.id) ]
        !flushed;
      Engine.sleep 2000.0;
      Alcotest.(check int) "no later flush" 1 (Batcher.flushes b))

(* Random interleavings of additions, takes and sleeps: every element
   leaves exactly once, by a flush or a take, in the order it was
   added, and no flushed element waited longer than the window. *)
type batcher_op = Add of int | Take | Sleep of float

let batcher_case_gen =
  QCheck.Gen.(
    pair
      (oneofl [ 0.0; 1.0; 3.0 ])
      (list_size (int_range 1 40)
         (frequency
            [
              (4, map (fun n -> Add n) (int_range 1 30));
              (1, return Take);
              (3, map (fun d -> Sleep d) (oneofl [ 0.0; 0.5; 1.0; 2.5 ]));
            ])))

let show_batcher_case (window, ops) =
  Printf.sprintf "window %g: %s" window
    (String.concat "; "
       (List.map
          (function
            | Add n -> Printf.sprintf "Add %d" n
            | Take -> "Take"
            | Sleep d -> Printf.sprintf "Sleep %g" d)
          ops))

let prop_batcher_conserves_order =
  QCheck.Test.make ~name:"every element leaves once, in order" ~count:300
    (QCheck.make ~print:show_batcher_case batcher_case_gen)
    (fun (window, ops) ->
      let out = ref [] and delays_ok = ref true and next = ref 0 in
      run_sim (fun () ->
          let b =
            Batcher.create ~window
              ~on_flush:(fun ~size:_ ~queue_delay ->
                if queue_delay > window +. 1e-9 then delays_ok := false)
              (fun items -> out := List.rev_append items !out)
          in
          List.iter
            (function
              | Add n ->
                  Batcher.add b (List.init n (fun i -> !next + i));
                  next := !next + n
              | Take -> out := List.rev_append (Batcher.take b) !out
              | Sleep d -> Engine.sleep d)
            ops;
          Engine.sleep (window +. 1.0));
      !delays_ok && List.rev !out = List.init !next Fun.id)

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
      ( "stage_hook",
        [
          Alcotest.test_case "write" `Quick test_stage_hook_write;
          Alcotest.test_case "validated read-only" `Quick
            test_stage_hook_ro_validated;
          Alcotest.test_case "stale read-only falls through" `Quick
            test_stage_hook_ro_falls_through;
          Alcotest.test_case "duplicate fires nothing" `Quick
            test_stage_hook_duplicate;
        ] );
      ( "admission",
        [ QCheck_alcotest.to_alcotest prop_admission_matches_scan ] );
      ( "batcher",
        [
          Alcotest.test_case "window coalesces in order" `Quick
            test_batcher_window;
          Alcotest.test_case "take drains and cancels the timer" `Quick
            test_batcher_take;
          Alcotest.test_case "0 ms window: same instant only" `Quick
            test_batcher_zero_window;
          Alcotest.test_case "submit_all pipelines rounds" `Quick
            test_batcher_pipelines;
          Alcotest.test_case "the cap flushes at once" `Quick test_batcher_cap;
          QCheck_alcotest.to_alcotest prop_batcher_conserves_order;
          Alcotest.test_case "take after the timer fired" `Quick
            test_batcher_take_after_fire;
        ] );
    ]
