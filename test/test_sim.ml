(* Tests for the discrete-event engine and its synchronization primitives. *)

open Sim

let run_sim ?seed ?until f =
  let e = Engine.create ?seed () in
  Engine.run ?until e f

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:Int.compare in
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_pqueue_peek () =
  let q = Pqueue.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "empty peek" None (Pqueue.peek q);
  Pqueue.push q 3;
  Pqueue.push q 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Pqueue.peek q);
  Alcotest.(check int) "length" 2 (Pqueue.length q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.create ~cmp:Int.compare in
      List.iter (Pqueue.push q) xs;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* --- Vacated slots do not pin removed elements ------------------------ *)

(* [alloc n] makes [n] fresh heap blocks, each watched by a weak pointer.
   Allocating in a separate, non-inlined function keeps no stray stack
   reference to them in the caller. *)
let[@inline never] alloc n =
  let xs = List.init n (fun i -> ref i) in
  let w = Weak.create n in
  List.iteri (fun i x -> Weak.set w i (Some x)) xs;
  (xs, w)

let collected w i =
  Gc.full_major ();
  Option.is_none (Weak.get w i)

let test_pqueue_pop_releases () =
  let q = Pqueue.create ~cmp:(fun a b -> Int.compare !a !b) in
  let w =
    let xs, w = alloc 3 in
    List.iter (Pqueue.push q) xs;
    w
  in
  for _ = 1 to 3 do
    ignore (Pqueue.pop q)
  done;
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "popped %d collectable" i) true
        (collected w i))
    [ 0; 1; 2 ];
  Pqueue.push q (ref 7);
  Alcotest.(check (option int)) "reusable" (Some 7)
    (Option.map ( ! ) (Pqueue.pop q))

let test_vec_drop_releases () =
  let v = Vec.create () in
  let w =
    let xs, w = alloc 4 in
    List.iter (Vec.push v) xs;
    w
  in
  Vec.drop v 3;
  Alcotest.(check int) "one left" 1 (Vec.length v);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "dropped %d collectable" i) true
        (collected w i))
    [ 0; 1; 2 ];
  Alcotest.(check int) "survivor intact" 3 !(Vec.get v 0)

let test_vec_truncate_releases () =
  let v = Vec.create () in
  let w =
    let xs, w = alloc 3 in
    List.iter (Vec.push v) xs;
    w
  in
  Vec.truncate v 1;
  Alcotest.(check bool) "truncated 1 collectable" true (collected w 1);
  Alcotest.(check bool) "truncated 2 collectable" true (collected w 2);
  Alcotest.(check int) "survivor intact" 0 !(Vec.get v 0);
  Vec.truncate v 0;
  Alcotest.(check bool) "emptied collectable" true (collected w 0)

(* ------------------------------------------------------------------ *)
(* Expiring                                                            *)

let test_expiring_forgets_after_deadline () =
  let t = Expiring.create 8 in
  Expiring.replace t "a" (ref 1);
  Expiring.replace t "b" (ref 2);
  Expiring.expire t "a" (Option.get (Expiring.find_opt t "a")) ~at:10.0;
  Expiring.prune t ~now:10.0;
  Alcotest.(check bool) "kept at the deadline" true (Expiring.mem t "a");
  Expiring.prune t ~now:10.5;
  Alcotest.(check bool) "forgotten after it" false (Expiring.mem t "a");
  Alcotest.(check bool) "no deadline, kept" true (Expiring.mem t "b")

(* A key re-bound to a fresh value survives the old value's deadline. *)
let test_expiring_rebound_survives () =
  let t = Expiring.create 8 in
  let old = ref 1 in
  Expiring.replace t "k" old;
  Expiring.expire t "k" old ~at:5.0;
  let fresh = ref 1 in
  Expiring.replace t "k" fresh;
  Expiring.prune t ~now:6.0;
  Alcotest.(check bool) "fresh binding kept" true
    (match Expiring.find_opt t "k" with Some v -> v == fresh | None -> false);
  Expiring.expire t "k" fresh ~at:8.0;
  Expiring.prune t ~now:9.0;
  Alcotest.(check int) "then forgotten" 0 (Expiring.length t)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  (* Child stream differs from parent continuation. *)
  Alcotest.(check bool) "streams differ" true (Rng.bits64 child <> Rng.bits64 a)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let v = Rng.int r n in
      v >= 0 && v < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r 10.0 in
      v >= 0.0 && v < 10.0)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_exponential_positive () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential r ~mean:5.0 >= 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_sleep_advances_clock () =
  let final = ref 0.0 in
  run_sim (fun () ->
      check_float "starts at zero" 0.0 (Engine.now ());
      Engine.sleep 10.0;
      check_float "after sleep" 10.0 (Engine.now ());
      Engine.sleep 2.5;
      final := Engine.now ());
  check_float "accumulates" 12.5 !final

let test_negative_sleep_clamped () =
  run_sim (fun () ->
      Engine.sleep (-5.0);
      check_float "clamped" 0.0 (Engine.now ()))

let test_same_time_fifo () =
  let order = ref [] in
  run_sim (fun () ->
      for i = 1 to 5 do
        Engine.spawn (fun () -> order := i :: !order)
      done);
  Alcotest.(check (list int)) "spawn order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_sleep_interleaving () =
  let order = ref [] in
  run_sim (fun () ->
      Engine.spawn (fun () ->
          Engine.sleep 3.0;
          order := "c" :: !order);
      Engine.spawn (fun () ->
          Engine.sleep 1.0;
          order := "a" :: !order);
      Engine.spawn (fun () ->
          Engine.sleep 2.0;
          order := "b" :: !order));
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_yield_defers () =
  let order = ref [] in
  run_sim (fun () ->
      Engine.spawn (fun () ->
          order := "a1" :: !order;
          Engine.yield ();
          order := "a2" :: !order);
      Engine.spawn (fun () -> order := "b" :: !order));
  Alcotest.(check (list string)) "yield order" [ "a1"; "b"; "a2" ]
    (List.rev !order)

let test_fiber_error_propagates () =
  Alcotest.check_raises "fiber error"
    (Engine.Fiber_error ("boom", Failure "x"))
    (fun () ->
      run_sim (fun () -> Engine.spawn ~name:"boom" (fun () -> failwith "x")))

let test_until_caps_time () =
  let e = Engine.create () in
  let reached = ref false in
  Engine.run ~until:5.0 e (fun () ->
      Engine.sleep 10.0;
      reached := true);
  Alcotest.(check bool) "event beyond cap not run" false !reached;
  Alcotest.(check int) "fiber still live" 1 (Engine.live_fibers e)

let test_run_outside_raises () =
  Alcotest.check_raises "not running" Engine.Not_running (fun () ->
      ignore (Engine.now ()))

let test_blocked_fiber_quiescence () =
  let e = Engine.create () in
  Engine.run e (fun () ->
      Engine.spawn (fun () -> ignore (Ivar.read (Ivar.create ()))));
  Alcotest.(check int) "one blocked fiber" 1 (Engine.live_fibers e)

let test_schedule_callback () =
  let fired = ref [] in
  run_sim (fun () ->
      Engine.schedule ~at:7.0 (fun () -> fired := Engine.now () :: !fired);
      Engine.schedule ~at:3.0 (fun () -> fired := Engine.now () :: !fired));
  Alcotest.(check (list (float 1e-9))) "callbacks in time order" [ 3.0; 7.0 ]
    (List.rev !fired)

let test_engine_runs_twice () =
  (* Virtual time persists across run calls on the same engine. *)
  let e = Engine.create () in
  Engine.run e (fun () -> Engine.sleep 5.0);
  let final = ref 0.0 in
  Engine.run e (fun () ->
      Engine.sleep 3.0;
      final := Engine.now ());
  check_float "time persisted" 8.0 !final

let test_rng_exponential_mean () =
  let r = Rng.create 9 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 50" true (mean > 47.0 && mean < 53.0)

let test_rng_lognormal_median () =
  let r = Rng.create 10 in
  let samples = List.init 9999 (fun _ -> Rng.lognormal r ~mu:0.0 ~sigma:0.25) in
  let sorted = List.sort Float.compare samples in
  let median = List.nth sorted 5000 in
  (* median of lognormal(mu, sigma) is exp(mu) = 1. *)
  Alcotest.(check bool) "median near 1" true (median > 0.95 && median < 1.05)

(* A trace-based determinism property: same seed gives the same sequence of
   (time, id) observations even with randomized sleeps. *)
let trace seed =
  let acc = ref [] in
  run_sim ~seed (fun () ->
      let r = Engine.rng () in
      for i = 1 to 20 do
        Engine.spawn (fun () ->
            Engine.sleep (Rng.float r 100.0);
            acc := (Engine.now (), i) :: !acc)
      done);
  List.rev !acc

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are reproducible from seed" ~count:25
    QCheck.small_int (fun seed -> trace seed = trace seed)

(* ------------------------------------------------------------------ *)
(* Ivar                                                                *)

let test_ivar_fill_then_read () =
  run_sim (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 42;
      Alcotest.(check int) "read full" 42 (Ivar.read iv);
      Alcotest.(check bool) "is_full" true (Ivar.is_full iv))

let test_ivar_read_blocks_until_fill () =
  let got = ref 0 in
  run_sim (fun () ->
      let iv = Ivar.create () in
      Engine.spawn (fun () -> got := Ivar.read iv);
      Engine.spawn (fun () ->
          Engine.sleep 5.0;
          Ivar.fill iv 9);
      Engine.sleep 10.0;
      Alcotest.(check int) "woken with value" 9 !got)

let test_ivar_multiple_readers () =
  let got = ref [] in
  run_sim (fun () ->
      let iv = Ivar.create () in
      for i = 1 to 3 do
        Engine.spawn (fun () ->
            let v = Ivar.read iv in
            got := (i, v) :: !got)
      done;
      Engine.sleep 1.0;
      Ivar.fill iv 7;
      Engine.sleep 1.0;
      Alcotest.(check (list (pair int int))) "all woken FIFO"
        [ (1, 7); (2, 7); (3, 7) ]
        (List.rev !got))

let test_ivar_double_fill () =
  run_sim (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 1;
      Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
      Alcotest.check_raises "fill raises"
        (Invalid_argument "Ivar.fill: already full") (fun () ->
          Ivar.fill iv 3);
      Alcotest.(check (option int)) "value unchanged" (Some 1) (Ivar.peek iv))

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)

let test_mailbox_fifo () =
  run_sim (fun () ->
      let mb = Mailbox.create () in
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3;
      Alcotest.(check int) "queued" 3 (Mailbox.length mb);
      let a = Mailbox.recv mb in
      let b = Mailbox.recv mb in
      let c = Mailbox.recv mb in
      Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] [ a; b; c ])

let test_mailbox_blocking_recv () =
  let got = ref 0 in
  run_sim (fun () ->
      let mb = Mailbox.create () in
      Engine.spawn (fun () -> got := Mailbox.recv mb);
      Engine.sleep 4.0;
      Mailbox.send mb 11;
      Engine.sleep 1.0;
      Alcotest.(check int) "delivered" 11 !got)

let test_mailbox_waiters_fifo () =
  let got = ref [] in
  run_sim (fun () ->
      let mb = Mailbox.create () in
      for i = 1 to 3 do
        Engine.spawn (fun () ->
            let v = Mailbox.recv mb in
            got := (i, v) :: !got)
      done;
      Engine.sleep 1.0;
      List.iter (Mailbox.send mb) [ 10; 20; 30 ];
      Engine.sleep 1.0;
      Alcotest.(check (list (pair int int))) "waiters FIFO"
        [ (1, 10); (2, 20); (3, 30) ]
        (List.rev !got))

let test_mailbox_timeout_expires () =
  run_sim (fun () ->
      let mb : int Mailbox.t = Mailbox.create () in
      let t0 = Engine.now () in
      let r = Mailbox.recv_timeout mb 5.0 in
      Alcotest.(check (option int)) "timed out" None r;
      check_float "waited the timeout" 5.0 (Engine.now () -. t0))

let test_mailbox_timeout_delivery () =
  run_sim (fun () ->
      let mb = Mailbox.create () in
      Engine.spawn (fun () ->
          Engine.sleep 2.0;
          Mailbox.send mb 5);
      let r = Mailbox.recv_timeout mb 10.0 in
      Alcotest.(check (option int)) "delivered before timeout" (Some 5) r;
      check_float "at delivery time" 2.0 (Engine.now ());
      (* The timed-out waiter must not consume a later message. *)
      Engine.sleep 20.0;
      Mailbox.send mb 6;
      Alcotest.(check (option int)) "queued normally" (Some 6)
        (Mailbox.recv_opt mb))

let test_mailbox_recv_opt () =
  run_sim (fun () ->
      let mb = Mailbox.create () in
      Alcotest.(check (option int)) "empty" None (Mailbox.recv_opt mb);
      Mailbox.send mb 1;
      Alcotest.(check (option int)) "ready" (Some 1) (Mailbox.recv_opt mb))

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)

let test_timer_fires () =
  let at = ref (-1.0) in
  run_sim (fun () ->
      let t = Timer.after 8.0 (fun () -> at := Engine.now ()) in
      Engine.sleep 20.0;
      Alcotest.(check bool) "fired" true (Timer.fired t));
  check_float "fired on time" 8.0 !at

let test_timer_cancel () =
  let fired = ref false in
  run_sim (fun () ->
      let t = Timer.after 8.0 (fun () -> fired := true) in
      Engine.sleep 2.0;
      Timer.cancel t;
      Engine.sleep 20.0;
      Alcotest.(check bool) "cancelled flag" true (Timer.cancelled t));
  Alcotest.(check bool) "did not fire" false !fired

let test_timer_cancel_after_fire () =
  run_sim (fun () ->
      let t = Timer.after 1.0 (fun () -> ()) in
      Engine.sleep 5.0;
      Timer.cancel t;
      Alcotest.(check bool) "still fired" true (Timer.fired t);
      Alcotest.(check bool) "not cancelled" false (Timer.cancelled t))

let test_timer_callback_can_block () =
  let steps = ref [] in
  run_sim (fun () ->
      let _ =
        Timer.after 1.0 (fun () ->
            steps := `Start :: !steps;
            Engine.sleep 3.0;
            steps := `End :: !steps)
      in
      Engine.sleep 10.0);
  Alcotest.(check int) "both steps ran" 2 (List.length !steps)

(* Cancelling releases the callback, and with it whatever the callback
   captured, while the timer's event is still queued. *)
let test_timer_cancel_releases_callback () =
  run_sim (fun () ->
      let[@inline never] arm () =
        let xs, w = alloc 1 in
        let payload = List.hd xs in
        (Timer.after 60_000.0 (fun () -> incr payload), w)
      in
      let t, w = arm () in
      Alcotest.(check bool) "held while armed" false (collected w 0);
      Timer.cancel t;
      Alcotest.(check bool) "collectable once cancelled" true (collected w 0);
      Engine.sleep 1.0)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "pops sorted" `Quick test_pqueue_order;
          Alcotest.test_case "peek/clear" `Quick test_pqueue_peek;
          Alcotest.test_case "pop releases" `Quick test_pqueue_pop_releases;
        ]
        @ qsuite [ prop_pqueue_sorts ] );
      ( "vec",
        [
          Alcotest.test_case "drop releases" `Quick test_vec_drop_releases;
          Alcotest.test_case "truncate releases" `Quick
            test_vec_truncate_releases;
        ] );
      ( "expiring",
        [
          Alcotest.test_case "forgets after deadline" `Quick
            test_expiring_forgets_after_deadline;
          Alcotest.test_case "re-bound key survives" `Quick
            test_expiring_rebound_survives;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "lognormal median" `Quick test_rng_lognormal_median;
        ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_float_bounds ] );
      ( "engine",
        [
          Alcotest.test_case "sleep advances clock" `Quick
            test_sleep_advances_clock;
          Alcotest.test_case "negative sleep clamped" `Quick
            test_negative_sleep_clamped;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "sleep interleaving" `Quick test_sleep_interleaving;
          Alcotest.test_case "yield defers" `Quick test_yield_defers;
          Alcotest.test_case "fiber error propagates" `Quick
            test_fiber_error_propagates;
          Alcotest.test_case "until caps time" `Quick test_until_caps_time;
          Alcotest.test_case "ops outside run raise" `Quick
            test_run_outside_raises;
          Alcotest.test_case "blocked fiber quiescence" `Quick
            test_blocked_fiber_quiescence;
          Alcotest.test_case "schedule callbacks" `Quick test_schedule_callback;
          Alcotest.test_case "engine runs twice" `Quick test_engine_runs_twice;
        ]
        @ qsuite [ prop_engine_deterministic ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick
            test_ivar_read_blocks_until_fill;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "waiters FIFO" `Quick test_mailbox_waiters_fifo;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_timeout_expires;
          Alcotest.test_case "timeout delivery" `Quick
            test_mailbox_timeout_delivery;
          Alcotest.test_case "recv_opt" `Quick test_mailbox_recv_opt;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "cancel after fire" `Quick
            test_timer_cancel_after_fire;
          Alcotest.test_case "callback can block" `Quick
            test_timer_callback_can_block;
          Alcotest.test_case "cancel releases callback" `Quick
            test_timer_cancel_releases_callback;
        ] );
    ]
