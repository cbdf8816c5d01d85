(* Tests for the versioned KV store, lock table, write intents and
   idempotency keys. *)

open Sim

let run_sim ?(seed = 1) f =
  let e = Engine.create ~seed () in
  Engine.run e f

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Kv                                                                  *)

let v s = Dval.Str s

let test_kv_get_absent () =
  run_sim (fun () ->
      let kv = Store.Kv.create () in
      Alcotest.(check bool) "absent" true (Store.Kv.get kv "x" = None);
      Alcotest.(check int) "version 0" 0 (Store.Kv.version_of kv "x"))

let test_kv_versions_increment () =
  run_sim (fun () ->
      let kv = Store.Kv.create () in
      Alcotest.(check int) "v1" 1 (Store.Kv.put kv "x" (v "a"));
      Alcotest.(check int) "v2" 2 (Store.Kv.put kv "x" (v "b"));
      Alcotest.(check int) "v3" 3 (Store.Kv.put kv "x" (v "c"));
      match Store.Kv.get kv "x" with
      | Some { value; version } ->
          Alcotest.(check bool) "latest value" true (Dval.equal value (v "c"));
          Alcotest.(check int) "latest version" 3 version
      | None -> Alcotest.fail "expected value")

let test_kv_access_latency () =
  run_sim (fun () ->
      let kv = Store.Kv.create ~access_latency:6.0 () in
      let t0 = Engine.now () in
      ignore (Store.Kv.get kv "x");
      check_float "get pays latency" 6.0 (Engine.now () -. t0);
      let t1 = Engine.now () in
      ignore (Store.Kv.get_many kv [ "a"; "b"; "c" ]);
      check_float "batch pays once" 6.0 (Engine.now () -. t1))

let test_kv_load_and_counters () =
  run_sim (fun () ->
      let kv = Store.Kv.create () in
      let t0 = Engine.now () in
      Store.Kv.load kv [ ("a", v "1"); ("b", v "2") ];
      check_float "load free" t0 (Engine.now ());
      Alcotest.(check int) "size" 2 (Store.Kv.size kv);
      ignore (Store.Kv.get kv "a");
      ignore (Store.Kv.get_many kv [ "a"; "b" ]);
      ignore (Store.Kv.put kv "c" (v "3"));
      Alcotest.(check int) "reads" 3 (Store.Kv.reads kv);
      Alcotest.(check int) "writes" 1 (Store.Kv.writes kv))

let test_kv_versions_of () =
  run_sim (fun () ->
      let kv = Store.Kv.create () in
      Store.Kv.load kv [ ("a", v "1") ];
      Alcotest.(check (list (pair string int))) "batch versions"
        [ ("a", 1); ("zz", 0) ]
        (Store.Kv.versions_of kv [ "a"; "zz" ]))

(* Version monotonicity: under any interleaving of put and load, each
   key's observable version never decreases, and every successful write
   strictly increases it. *)
let prop_kv_versions_monotonic =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> `Put (k, v)) (int_range 0 4) small_nat;
          map2 (fun k v -> `Load (k, v)) (int_range 0 4) small_nat;
        ])
  in
  QCheck.Test.make ~name:"kv versions are monotonic" ~count:100
    QCheck.(make Gen.(list_size (1 -- 40) op_gen))
    (fun ops ->
      let e = Engine.create ~seed:7 () in
      let ok = ref true in
      Engine.run e (fun () ->
          let kv = Store.Kv.create ~access_latency:0.0 () in
          let key i = Printf.sprintf "k%d" i in
          let last = Hashtbl.create 8 in
          let seen k = try Hashtbl.find last k with Not_found -> 0 in
          let observe k v' ~wrote =
            if wrote then ok := !ok && v' > seen k
            else ok := !ok && v' >= seen k;
            Hashtbl.replace last k (max v' (seen k))
          in
          List.iter
            (fun op ->
              match op with
              | `Put (k, v) ->
                  let k = key k in
                  observe k (Store.Kv.put kv k (Dval.int v)) ~wrote:true
              | `Load (k, v) ->
                  let k = key k in
                  Store.Kv.load kv [ (k, Dval.int v) ];
                  observe k (Store.Kv.version_of kv k) ~wrote:true)
            ops;
          (* Final cross-check: versions_of agrees with the tracked maxima. *)
          Hashtbl.iter
            (fun k v ->
              ok := !ok && Store.Kv.version_of kv k = v;
              ok :=
                !ok
                && match Store.Kv.peek kv k with
                   | Some { version; _ } -> version = v
                   | None -> v = 0)
            last);
      !ok)

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let test_locks_read_shared () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"a" [ ("k", Store.Locks.Read) ];
      Store.Locks.acquire lt ~owner:"b" [ ("k", Store.Locks.Read) ];
      (match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, owners) ->
          Alcotest.(check (list string)) "both readers" [ "a"; "b" ] owners
      | _ -> Alcotest.fail "expected shared read");
      Store.Locks.release lt ~owner:"a";
      Store.Locks.release lt ~owner:"b";
      Alcotest.(check bool) "free" true (Store.Locks.holders lt "k" = None))

let test_locks_write_exclusive () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      let order = ref [] in
      Store.Locks.acquire lt ~owner:"w1" [ ("k", Store.Locks.Write) ];
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"w2" [ ("k", Store.Locks.Write) ];
          order := "w2" :: !order);
      Engine.sleep 1.0;
      Alcotest.(check (list string)) "w2 still waiting" [] !order;
      Alcotest.(check int) "one waiter" 1 (Store.Locks.waiting lt "k");
      Store.Locks.release lt ~owner:"w1";
      Engine.sleep 1.0;
      Alcotest.(check (list string)) "w2 granted" [ "w2" ] !order)

let test_locks_fifo_no_overtake () =
  (* Reader R2 arriving after writer W must queue behind W even though the
     lock is currently held only by reader R1. *)
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      let order = ref [] in
      Store.Locks.acquire lt ~owner:"r1" [ ("k", Store.Locks.Read) ];
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"w" [ ("k", Store.Locks.Write) ];
          order := "w" :: !order);
      Engine.sleep 1.0;
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"r2" [ ("k", Store.Locks.Read) ];
          order := "r2" :: !order);
      Engine.sleep 1.0;
      Alcotest.(check (list string)) "both blocked" [] !order;
      Store.Locks.release lt ~owner:"r1";
      Engine.sleep 1.0;
      Alcotest.(check (list string)) "writer first" [ "w" ] !order;
      Store.Locks.release lt ~owner:"w";
      Engine.sleep 1.0;
      Alcotest.(check (list string)) "then reader" [ "w"; "r2" ]
        (List.rev !order))

let test_locks_batch_sorted () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"o"
        [ ("z", Store.Locks.Write); ("a", Store.Locks.Read) ];
      Alcotest.(check (list (pair string bool))) "acquired in sorted order"
        [ ("a", false); ("z", true) ]
        (List.map
           (fun (k, m) -> (k, m = Store.Locks.Write))
           (Store.Locks.held_by lt ~owner:"o")))

(* Regression for the O(1) holder bookkeeping (grant/record_held build
   their lists newest-first and reverse on read-out): observable order
   must stay arrival order for readers and sorted-acquisition order for
   a batch, including after releases from the middle. *)
let test_locks_holder_order_many () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      let owners = List.init 6 (fun i -> Printf.sprintf "r%d" i) in
      List.iter
        (fun o -> Store.Locks.acquire lt ~owner:o [ ("k", Store.Locks.Read) ])
        owners;
      (match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, got) ->
          Alcotest.(check (list string)) "arrival order preserved" owners got
      | _ -> Alcotest.fail "expected shared read");
      Store.Locks.release lt ~owner:"r2";
      (match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, got) ->
          Alcotest.(check (list string)) "order kept after mid release"
            [ "r0"; "r1"; "r3"; "r4"; "r5" ] got
      | _ -> Alcotest.fail "expected shared read");
      List.iter
        (fun o -> Store.Locks.release lt ~owner:o)
        [ "r0"; "r1"; "r3"; "r4"; "r5" ];
      Alcotest.(check bool) "free" true (Store.Locks.holders lt "k" = None);
      let keys =
        List.init 8 (fun i -> (Printf.sprintf "b%d" (7 - i), Store.Locks.Read))
      in
      Store.Locks.acquire lt ~owner:"batch" keys;
      Alcotest.(check (list string)) "held_by in sorted order"
        (List.init 8 (fun i -> Printf.sprintf "b%d" i))
        (List.map fst (Store.Locks.held_by lt ~owner:"batch")))

let test_locks_duplicate_key_raises () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Alcotest.check_raises "duplicate"
        (Invalid_argument "Locks.acquire: duplicate key k") (fun () ->
          Store.Locks.acquire lt ~owner:"o"
            [ ("k", Store.Locks.Read); ("k", Store.Locks.Write) ]))

let test_locks_double_acquire_raises () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"o" [ ("k", Store.Locks.Read) ];
      Alcotest.check_raises "double acquire"
        (Invalid_argument "Locks.acquire: o already holds locks") (fun () ->
          Store.Locks.acquire lt ~owner:"o" [ ("j", Store.Locks.Read) ]))

(* Regression for [release_one]'s Read branch: a release must undo
   exactly one grant. Releasing one of several readers leaves the others
   holding, a second release by the same owner is a no-op (its held
   record is gone), and a writer queued behind the readers wakes only
   once the *last* reader leaves. *)
let test_locks_release_one_reader_keeps_others () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"a" [ ("k", Store.Locks.Read) ];
      Store.Locks.acquire lt ~owner:"b" [ ("k", Store.Locks.Read) ];
      let writer_in = ref false in
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"w" [ ("k", Store.Locks.Write) ];
          writer_in := true);
      Engine.sleep 1.0;
      Store.Locks.release lt ~owner:"a";
      (match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, got) ->
          Alcotest.(check (list string)) "b still holds" [ "b" ] got
      | _ -> Alcotest.fail "expected b to keep the read lock");
      (* Double release by the same owner must not disturb b's grant. *)
      Store.Locks.release lt ~owner:"a";
      (match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, got) ->
          Alcotest.(check (list string)) "unaffected by re-release" [ "b" ] got
      | _ -> Alcotest.fail "expected b to keep the read lock");
      Engine.sleep 1.0;
      Alcotest.(check bool) "writer still queued" false !writer_in;
      Store.Locks.release lt ~owner:"b";
      Engine.sleep 1.0;
      Alcotest.(check bool) "writer admitted after last reader" true !writer_in;
      Store.Locks.release lt ~owner:"w";
      Alcotest.(check bool) "free" true (Store.Locks.holders lt "k" = None))

let test_locks_contention_counter () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"a" [ ("k", Store.Locks.Write) ];
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"b" [ ("k", Store.Locks.Write) ]);
      Engine.sleep 1.0;
      Store.Locks.release lt ~owner:"a";
      Engine.sleep 1.0;
      Alcotest.(check int) "grants" 2 (Store.Locks.acquisitions lt);
      Alcotest.(check int) "contended" 1 (Store.Locks.contended_acquisitions lt))

let test_locks_try_acquire_free () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Alcotest.(check bool) "grants when free" true
        (Store.Locks.try_acquire lt ~owner:"o"
           [ ("a", Store.Locks.Read); ("b", Store.Locks.Write) ]);
      Alcotest.(check (list (pair string bool))) "holds both"
        [ ("a", false); ("b", true) ]
        (List.map
           (fun (k, m) -> (k, m = Store.Locks.Write))
           (Store.Locks.held_by lt ~owner:"o"));
      Store.Locks.release lt ~owner:"o";
      Alcotest.(check bool) "free again" true (Store.Locks.holders lt "b" = None))

let test_locks_try_acquire_shared_read () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"r1" [ ("k", Store.Locks.Read) ];
      Alcotest.(check bool) "read joins read" true
        (Store.Locks.try_acquire lt ~owner:"r2" [ ("k", Store.Locks.Read) ]);
      match Store.Locks.holders lt "k" with
      | Some (Store.Locks.Read, owners) ->
          Alcotest.(check (list string)) "both hold" [ "r1"; "r2" ] owners
      | _ -> Alcotest.fail "expected shared read")

(* The all-or-nothing contract: a conflict on ANY key must leave NO lock
   granted and NO queue entry behind — a partial grant or a parked waiter
   would create the wait-for edges the cross-shard parallel prepare round
   must never create. *)
let test_locks_try_acquire_conflict_leaves_nothing () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"w" [ ("b", Store.Locks.Write) ];
      Alcotest.(check bool) "refused" false
        (Store.Locks.try_acquire lt ~owner:"o"
           [ ("a", Store.Locks.Read); ("b", Store.Locks.Read) ]);
      Alcotest.(check (list (pair string bool))) "o holds nothing" []
        (List.map
           (fun (k, m) -> (k, m = Store.Locks.Write))
           (Store.Locks.held_by lt ~owner:"o"));
      Alcotest.(check bool) "a untouched" true (Store.Locks.holders lt "a" = None);
      Alcotest.(check int) "no waiter parked on a" 0 (Store.Locks.waiting lt "a");
      Alcotest.(check int) "no waiter parked on b" 0 (Store.Locks.waiting lt "b");
      (* After the refusal the owner must still be able to block-acquire. *)
      Store.Locks.release lt ~owner:"w";
      Store.Locks.acquire lt ~owner:"o"
        [ ("a", Store.Locks.Read); ("b", Store.Locks.Read) ];
      Alcotest.(check int) "o then acquires both" 2
        (List.length (Store.Locks.held_by lt ~owner:"o")))

(* No queue-jumping: even if the current holder set is compatible (reader
   joining readers), a non-empty FIFO wait queue makes try_acquire refuse
   rather than overtake the parked writer. *)
let test_locks_try_acquire_no_overtake () =
  run_sim (fun () ->
      let lt = Store.Locks.create () in
      Store.Locks.acquire lt ~owner:"r1" [ ("k", Store.Locks.Read) ];
      Engine.spawn (fun () ->
          Store.Locks.acquire lt ~owner:"w" [ ("k", Store.Locks.Write) ]);
      Engine.sleep 1.0;
      Alcotest.(check int) "writer queued" 1 (Store.Locks.waiting lt "k");
      Alcotest.(check bool) "reader refused past queued writer" false
        (Store.Locks.try_acquire lt ~owner:"r2" [ ("k", Store.Locks.Read) ]);
      Alcotest.(check int) "queue undisturbed" 1 (Store.Locks.waiting lt "k");
      Store.Locks.release lt ~owner:"r1";
      Engine.sleep 1.0;
      Store.Locks.release lt ~owner:"w")

(* Deadlock freedom: many fibers acquiring random overlapping lock sets in
   sorted order all complete. *)
let prop_locks_no_deadlock =
  QCheck.Test.make ~name:"sorted acquisition is deadlock-free" ~count:30
    QCheck.(pair small_int (list_of_size Gen.(1 -- 8) (int_range 0 5)))
    (fun (seed, _shape) ->
      let e = Engine.create ~seed () in
      let completed = ref 0 in
      let n_fibers = 12 in
      Engine.run e (fun () ->
          let lt = Store.Locks.create () in
          let rng = Engine.rng () in
          for i = 1 to n_fibers do
            Engine.spawn (fun () ->
                let n_keys = 1 + Rng.int rng 4 in
                let keys =
                  List.sort_uniq String.compare
                    (List.init n_keys (fun _ ->
                         Printf.sprintf "k%d" (Rng.int rng 6)))
                in
                let locks =
                  List.map
                    (fun k ->
                      ( k,
                        if Rng.bool rng then Store.Locks.Write
                        else Store.Locks.Read ))
                    keys
                in
                Store.Locks.acquire lt ~owner:(Printf.sprintf "f%d" i) locks;
                Engine.sleep (Rng.float rng 5.0);
                Store.Locks.release lt ~owner:(Printf.sprintf "f%d" i);
                incr completed)
          done);
      !completed = n_fibers && Engine.live_fibers e = 0)

(* ------------------------------------------------------------------ *)
(* Intents                                                             *)

let test_intents_lifecycle () =
  run_sim (fun () ->
      let it = Store.Intents.create () in
      Alcotest.(check bool) "created" true (Store.Intents.put it ~exec_id:"e1");
      Alcotest.(check bool) "pending" true
        (Store.Intents.status it ~exec_id:"e1" = Some Store.Intents.Pending);
      Alcotest.(check int) "pending count" 1 (Store.Intents.pending_count it);
      Alcotest.(check bool) "first completion wins" true
        (Store.Intents.try_complete it ~exec_id:"e1");
      Alcotest.(check bool) "second completion loses" false
        (Store.Intents.try_complete it ~exec_id:"e1");
      Store.Intents.remove it ~exec_id:"e1";
      Alcotest.(check bool) "removed" true
        (Store.Intents.status it ~exec_id:"e1" = None))

(* [put] is a conditional put-if-absent: a duplicated LVI delivery must
   find the first delivery's intent rather than crash the server, in
   either status. *)
let test_intents_duplicate_dedupes () =
  run_sim (fun () ->
      let it = Store.Intents.create () in
      Alcotest.(check bool) "created" true (Store.Intents.put it ~exec_id:"e1");
      Alcotest.(check bool) "duplicate while pending" false
        (Store.Intents.put it ~exec_id:"e1");
      Alcotest.(check bool) "still pending" true
        (Store.Intents.peek it ~exec_id:"e1" = Some Store.Intents.Pending);
      Alcotest.(check int) "one intent" 1 (Store.Intents.pending_count it);
      ignore (Store.Intents.try_complete it ~exec_id:"e1");
      Alcotest.(check bool) "duplicate after completion" false
        (Store.Intents.put it ~exec_id:"e1");
      Alcotest.(check bool) "completion not clobbered" true
        (Store.Intents.peek it ~exec_id:"e1" = Some Store.Intents.Completed))

let test_intents_unknown_complete () =
  run_sim (fun () ->
      let it = Store.Intents.create () in
      Alcotest.(check bool) "unknown id" false
        (Store.Intents.try_complete it ~exec_id:"nope"))

(* ------------------------------------------------------------------ *)
(* lock_list / merged_keys — the shared lock-shape helper              *)

let modes =
  Alcotest.(list (pair string bool))

let flat ll = List.map (fun (k, m) -> (k, m = Store.Locks.Write)) ll

let test_lock_list_writes_first () =
  (* The contractual shape fed to both the local lock table and the
     replicated lock log: every write key first (Write mode, original
     order), then the reads not also written (Read mode, original
     order). A key in both sets appears once, as a write. *)
  Alcotest.check modes "writes lead, written read collapsed"
    [ ("c", true); ("d", true); ("a", false); ("b", false) ]
    (flat (Store.Locks.lock_list ~reads:[ "a"; "b"; "c" ] ~writes:[ "c"; "d" ]))

let test_lock_list_degenerate () =
  Alcotest.check modes "empty" []
    (flat (Store.Locks.lock_list ~reads:[] ~writes:[]));
  Alcotest.check modes "reads only"
    [ ("b", false); ("a", false) ]
    (flat (Store.Locks.lock_list ~reads:[ "b"; "a" ] ~writes:[]));
  Alcotest.check modes "writes only"
    [ ("z", true); ("y", true) ]
    (flat (Store.Locks.lock_list ~reads:[] ~writes:[ "z"; "y" ]));
  Alcotest.check modes "all reads written"
    [ ("a", true); ("b", true) ]
    (flat (Store.Locks.lock_list ~reads:[ "b"; "a" ] ~writes:[ "a"; "b" ]))

let test_merged_keys_matches_lock_list () =
  let reads = [ "a"; "b"; "c" ] and writes = [ "c"; "d" ] in
  Alcotest.(check (list string))
    "merged_keys = keys of lock_list"
    (List.map fst (Store.Locks.lock_list ~reads ~writes))
    (Store.Locks.merged_keys ~reads ~writes)

(* ------------------------------------------------------------------ *)
(* Idempotency                                                         *)

let test_idempotency () =
  run_sim (fun () ->
      let t = Store.Idempotency.create () in
      let t0 = Engine.now () in
      Alcotest.(check bool) "first claim" true
        (Store.Idempotency.register t ~exec_id:"e1");
      check_float "3 ms write" 3.0 (Engine.now () -. t0);
      Alcotest.(check bool) "second claim rejected" false
        (Store.Idempotency.register t ~exec_id:"e1");
      Alcotest.(check bool) "seen" true (Store.Idempotency.seen t ~exec_id:"e1");
      Alcotest.(check int) "count" 1 (Store.Idempotency.count t))

(* A key registered with a TTL is forgotten once it has passed, like a
   DynamoDB item expiring; a key without one stays. *)
let test_idempotency_ttl () =
  run_sim (fun () ->
      let t = Store.Idempotency.create () in
      ignore (Store.Idempotency.register ~ttl:100.0 t ~exec_id:"inv:a");
      ignore (Store.Idempotency.register t ~exec_id:"ns:a");
      Alcotest.(check bool) "claimed inside the ttl" false
        (Store.Idempotency.register ~ttl:100.0 t ~exec_id:"inv:a");
      Engine.sleep 200.0;
      Alcotest.(check bool) "registers afresh after the ttl" true
        (Store.Idempotency.register ~ttl:100.0 t ~exec_id:"inv:a");
      Alcotest.(check bool) "no ttl: still claimed" false
        (Store.Idempotency.register t ~exec_id:"ns:a");
      Engine.sleep 200.0;
      ignore (Store.Idempotency.register t ~exec_id:"ns:b");
      Alcotest.(check int) "only the keys without ttl remain" 2
        (Store.Idempotency.count t))

(* The LVI server keys an invocation record by the bare exec id and an
   execution claim by "ns:" and the same id: both coexist, both count,
   and only the record expires. *)
let test_idempotency_exec_id_keys () =
  run_sim (fun () ->
      let t = Store.Idempotency.create () in
      let id = "CA/post/17" in
      Alcotest.(check bool) "record" true
        (Store.Idempotency.register ~ttl:100.0 t ~exec_id:id);
      Alcotest.(check bool) "claim beside it" true
        (Store.Idempotency.register t ~exec_id:("ns:" ^ id));
      Alcotest.(check int) "count covers both" 2 (Store.Idempotency.count t);
      Alcotest.(check bool) "record held inside the ttl" false
        (Store.Idempotency.register ~ttl:100.0 t ~exec_id:id);
      Engine.sleep 100.0;
      ignore (Store.Idempotency.register t ~exec_id:"ns:other");
      Alcotest.(check bool) "record forgotten after the ttl" false
        (Store.Idempotency.seen t ~exec_id:id);
      Alcotest.(check bool) "claim stays" true
        (Store.Idempotency.seen t ~exec_id:("ns:" ^ id));
      Alcotest.(check int) "count covers the claims" 2
        (Store.Idempotency.count t))

(* --- Dval.equal ------------------------------------------------------ *)

(* Structural reference with no physical-equality shortcut. *)
let rec ref_equal a b =
  match (a, b) with
  | Dval.Unit, Dval.Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Int64.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 ref_equal xs ys
  | Record xs, Record ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && ref_equal va vb)
           xs ys
  | _ -> false

let dval_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Dval.Unit;
                 map (fun b -> Dval.Bool b) bool;
                 map Dval.int (int_range 0 2);
                 map (fun s -> Dval.Str s) (oneofl [ "a"; "b" ]);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> Dval.List xs) (list_size (0 -- 3) (self (n - 1))));
                 ( 1,
                   map
                     (fun fs -> Dval.Record fs)
                     (list_size (0 -- 3) (pair (oneofl [ "f"; "g" ]) (self (n - 1))))
                 );
               ]))

(* A second value built from [a]: each subterm is physically shared,
   rebuilt as a fresh structural copy, or replaced by a random value. *)
let rec derive a =
  let open QCheck.Gen in
  let rebuilt =
    match a with
    | Dval.List xs -> map (fun xs -> Dval.List xs) (flatten_l (List.map derive xs))
    | Record fs ->
        map
          (fun fs -> Dval.Record fs)
          (flatten_l (List.map (fun (k, v) -> map (fun v -> (k, v)) (derive v)) fs))
    | Str s -> return (Dval.Str (String.init (String.length s) (String.get s)))
    | Int i -> return (Dval.Int (Int64.add i 0L))
    | Unit | Bool _ -> return a
  in
  frequency [ (3, return a); (3, rebuilt); (1, dval_gen) ]

let prop_dval_equal_structural =
  QCheck.Test.make ~name:"equal = structural equality"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Dval.to_string a ^ " vs " ^ Dval.to_string b)
       QCheck.Gen.(dval_gen >>= fun a -> map (fun b -> (a, b)) (derive a)))
    (fun (a, b) ->
      Dval.equal a a
      && Dval.equal a b = ref_equal a b
      && Dval.equal b a = ref_equal b a)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "store"
    [
      ( "kv",
        [
          Alcotest.test_case "get absent" `Quick test_kv_get_absent;
          Alcotest.test_case "versions increment" `Quick
            test_kv_versions_increment;
          Alcotest.test_case "access latency" `Quick test_kv_access_latency;
          Alcotest.test_case "load and counters" `Quick test_kv_load_and_counters;
          Alcotest.test_case "versions_of" `Quick test_kv_versions_of;
        ]
        @ qsuite [ prop_kv_versions_monotonic ] );
      ("dval", qsuite [ prop_dval_equal_structural ]);
      ( "locks",
        [
          Alcotest.test_case "read shared" `Quick test_locks_read_shared;
          Alcotest.test_case "write exclusive" `Quick test_locks_write_exclusive;
          Alcotest.test_case "FIFO no overtake" `Quick test_locks_fifo_no_overtake;
          Alcotest.test_case "batch sorted" `Quick test_locks_batch_sorted;
          Alcotest.test_case "holder order many" `Quick
            test_locks_holder_order_many;
          Alcotest.test_case "duplicate key raises" `Quick
            test_locks_duplicate_key_raises;
          Alcotest.test_case "double acquire raises" `Quick
            test_locks_double_acquire_raises;
          Alcotest.test_case "release one reader keeps others" `Quick
            test_locks_release_one_reader_keeps_others;
          Alcotest.test_case "contention counter" `Quick
            test_locks_contention_counter;
          Alcotest.test_case "try_acquire free" `Quick
            test_locks_try_acquire_free;
          Alcotest.test_case "try_acquire shared read" `Quick
            test_locks_try_acquire_shared_read;
          Alcotest.test_case "try_acquire conflict leaves nothing" `Quick
            test_locks_try_acquire_conflict_leaves_nothing;
          Alcotest.test_case "try_acquire no overtake" `Quick
            test_locks_try_acquire_no_overtake;
        ]
        @ qsuite [ prop_locks_no_deadlock ] );
      ( "lock_list",
        [
          Alcotest.test_case "writes first" `Quick test_lock_list_writes_first;
          Alcotest.test_case "degenerate shapes" `Quick
            test_lock_list_degenerate;
          Alcotest.test_case "merged_keys agrees" `Quick
            test_merged_keys_matches_lock_list;
        ] );
      ( "intents",
        [
          Alcotest.test_case "lifecycle" `Quick test_intents_lifecycle;
          Alcotest.test_case "duplicate dedupes" `Quick
            test_intents_duplicate_dedupes;
          Alcotest.test_case "unknown complete" `Quick
            test_intents_unknown_complete;
        ] );
      ( "idempotency",
        [
          Alcotest.test_case "at-most-once" `Quick test_idempotency;
          Alcotest.test_case "ttl keys expire" `Quick test_idempotency_ttl;
          Alcotest.test_case "exec-id records and claims" `Quick
            test_idempotency_exec_id_keys;
        ] );
    ]
