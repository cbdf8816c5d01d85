(* Tests for locations, the latency matrix, and the simulated transport. *)

open Sim
module Location = Net.Location
module Transport = Net.Transport

let run_sim ?(seed = 1) f =
  let e = Engine.create ~seed () in
  Engine.run e f

let check_float = Alcotest.(check (float 1e-6))

let mknet ?(jitter_sigma = 0.0) () =
  Transport.create ~jitter_sigma ~rng:(Rng.create 99) ()

(* ------------------------------------------------------------------ *)
(* Location                                                            *)

let test_rtt_symmetric () =
  let locs = Location.(user_locations @ [ oh; oregon ]) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_float
            (Printf.sprintf "rtt %s-%s symmetric" a b)
            (Location.rtt a b) (Location.rtt b a))
        locs)
    locs

let test_rtt_table2 () =
  (* Table 2 = network RTT + 6 ms storage service time. *)
  let expected = [ ("VA", 7.0); ("CA", 74.0); ("IE", 70.0); ("DE", 93.0); ("JP", 146.0) ] in
  List.iter
    (fun (l, ms) ->
      check_float ("table2 " ^ l) ms (Location.rtt l Location.va +. 6.0))
    expected

let test_rtt_unknown () =
  Alcotest.check_raises "unknown location"
    (Invalid_argument "Location.rtt: unknown location XX/VA") (fun () ->
      ignore (Location.rtt "XX" Location.va))

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)

let test_one_way_no_jitter () =
  let net = mknet () in
  check_float "half rtt" (Location.rtt Location.ca Location.va /. 2.0)
    (Transport.one_way net Location.ca Location.va)

let test_jitter_tail () =
  let net = mknet ~jitter_sigma:0.1 () in
  let samples =
    List.init 2000 (fun _ -> Transport.one_way net Location.jp Location.va)
  in
  let sorted = List.sort Float.compare samples in
  let nth p = List.nth sorted (int_of_float (p *. 2000.0)) in
  let median = nth 0.5 and p99 = nth 0.99 in
  let base = Location.rtt Location.jp Location.va /. 2.0 in
  Alcotest.(check bool) "median near base" true (Float.abs (median -. base) < 0.05 *. base);
  Alcotest.(check bool) "p99 above median" true (p99 > median *. 1.1)

let test_call_roundtrip_latency () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" (fun x -> x * 2) in
      let t0 = Engine.now () in
      let r = Transport.call net ~from:Location.ca svc 21 in
      Alcotest.(check int) "result" 42 r;
      check_float "latency = rtt" (Location.rtt Location.ca Location.va)
        (Engine.now () -. t0))

let test_call_includes_handler_time () =
  run_sim (fun () ->
      let net = mknet () in
      let svc =
        Transport.serve ~loc:Location.va ~name:"slow" (fun () -> Engine.sleep 50.0)
      in
      let t0 = Engine.now () in
      Transport.call net ~from:Location.ca svc ();
      check_float "rtt + handler"
        (Location.rtt Location.ca Location.va +. 50.0)
        (Engine.now () -. t0))

let test_concurrent_handlers () =
  (* Two simultaneous calls to a 50 ms handler must overlap, not serialize. *)
  run_sim (fun () ->
      let net = mknet () in
      let svc =
        Transport.serve ~loc:Location.va ~name:"slow" (fun () -> Engine.sleep 50.0)
      in
      let done1 = Ivar.create () and done2 = Ivar.create () in
      Engine.spawn (fun () ->
          Transport.call net ~from:Location.ca svc ();
          Ivar.fill done1 (Engine.now ()));
      Engine.spawn (fun () ->
          Transport.call net ~from:Location.ca svc ();
          Ivar.fill done2 (Engine.now ()));
      let t1 = Ivar.read done1 and t2 = Ivar.read done2 in
      check_float "both finish together" t1 t2;
      check_float "single rtt+handler" (68.0 +. 50.0) t1)

let test_call_timeout_success () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:1000.0 svc 7 in
      Alcotest.(check (option int)) "delivered" (Some 7) r)

let test_call_timeout_drop () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      ignore
        (Transport.add_fault net (fun ~src ~dst:_ ~label:_ ->
             if src = Location.ca then Transport.Drop else Transport.Deliver)
          : int);
      let t0 = Engine.now () in
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 7 in
      Alcotest.(check (option int)) "timed out" None r;
      check_float "waited full timeout" 200.0 (Engine.now () -. t0);
      Alcotest.(check int) "one drop recorded" 1 (Transport.messages_dropped net))

let test_call_timeout_cancels_timer () =
  (* A reply must cancel the pending timer: advancing the clock past the
     timeout after a successful call records no spurious timeout. *)
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:1000.0 svc 7 in
      Alcotest.(check (option int)) "delivered" (Some 7) r;
      Engine.sleep 2000.0;
      Alcotest.(check int) "no timeout recorded" 0 (Transport.calls_timed_out net);
      Alcotest.(check int) "no late replies" 0 (Transport.late_replies net))

let test_call_timeout_stats () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      ignore
        (Transport.add_fault net (fun ~src ~dst:_ ~label:_ ->
             if src = Location.ca then Transport.Drop else Transport.Deliver)
          : int);
      ignore (Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 7);
      ignore (Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 8);
      Alcotest.(check int) "two timeouts" 2 (Transport.calls_timed_out net))

let test_call_timeout_late_reply () =
  run_sim (fun () ->
      let net = mknet () in
      let tracer = Metrics.Tracer.create () in
      Transport.set_tracer net tracer;
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      (* 300 ms extra per leg pushes the reply far past the 200 ms
         timeout: the caller gets None, and when the reply eventually
         lands it is counted as late instead of re-filling the ivar. *)
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
             Transport.Delay 300.0)
          : int);
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 7 in
      Alcotest.(check (option int)) "timed out" None r;
      Alcotest.(check int) "timeout counted" 1 (Transport.calls_timed_out net);
      Alcotest.(check int) "reply not yet late" 0 (Transport.late_replies net);
      Engine.sleep 1000.0;
      Alcotest.(check int) "late reply counted" 1 (Transport.late_replies net);
      Alcotest.(check bool) "late reply in tracer" true
        (List.mem_assoc ("echo", "late_reply") (Metrics.Tracer.fault_counts tracer)))

(* The fault-prone call sites (LVI request, direct execution, Raft
   client submit) all go through [call_timeout]; under a chaos-style
   probabilistic drop hook — same shape the nemesis installs, drawing
   from the transport's dedicated fault stream — every caller must come
   back with Some or None within its timeout, never hang, and the
   successes + timeouts must account for every call. *)
let test_call_timeout_under_chaos_hook () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      let frng = Transport.fault_rng net in
      let handle =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
            if label = "echo" && Rng.float frng 1.0 < 0.5 then Transport.Drop
            else Transport.Deliver)
      in
      let n = 40 in
      let ok = ref 0 and timed_out = ref 0 and finished = ref 0 in
      for i = 1 to n do
        Engine.spawn (fun () ->
            (match
               Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc i
             with
            | Some v ->
                Alcotest.(check int) "echoed its own argument" i v;
                incr ok
            | None -> incr timed_out);
            incr finished)
      done;
      Engine.sleep 1000.0;
      Alcotest.(check int) "every caller returned" n !finished;
      Alcotest.(check int) "successes + timeouts cover all" n (!ok + !timed_out);
      Alcotest.(check bool) "chaos actually dropped some" true (!timed_out > 0);
      Alcotest.(check bool) "and delivered some" true (!ok > 0);
      Alcotest.(check int) "timeouts counted by transport" !timed_out
        (Transport.calls_timed_out net);
      Transport.remove_fault net handle;
      (* Healed: calls succeed again and the hook stack is clean. *)
      Alcotest.(check (option int)) "healed" (Some 7)
        (Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 7))

let test_response_drop () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      (* Drop only the response leg. *)
      ignore
        (Transport.add_fault net (fun ~src ~dst:_ ~label:_ ->
             if src = Location.va then Transport.Drop else Transport.Deliver)
          : int);
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 7 in
      Alcotest.(check (option int)) "response lost" None r)

let test_duplicate_fault () =
  run_sim (fun () ->
      let net = mknet () in
      let hits = ref 0 in
      let svc =
        Transport.serve ~loc:Location.va ~name:"sink" (fun () -> incr hits)
      in
      (* Duplicate only the request leg of the first post. *)
      let first = ref true in
      let h =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
            if !first then begin
              first := false;
              Transport.Duplicate
            end
            else Transport.Deliver)
      in
      Transport.post net ~from:Location.ca svc ();
      Engine.sleep 500.0;
      Alcotest.(check int) "handler ran twice" 2 !hits;
      Alcotest.(check int) "one duplication recorded" 1
        (Transport.messages_duplicated net);
      Alcotest.(check int) "nothing dropped" 0 (Transport.messages_dropped net);
      Transport.remove_fault net h;
      Transport.post net ~from:Location.ca svc ();
      Engine.sleep 500.0;
      Alcotest.(check int) "healed: delivered once" 3 !hits)

let test_delay_fault () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      let h =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
            Transport.Delay 100.0)
      in
      let t0 = Engine.now () in
      ignore (Transport.call net ~from:Location.ca svc 1);
      check_float "rtt + 2 delays" (68.0 +. 200.0) (Engine.now () -. t0);
      Transport.remove_fault net h;
      let t1 = Engine.now () in
      ignore (Transport.call net ~from:Location.ca svc 1);
      check_float "back to rtt" 68.0 (Engine.now () -. t1))

(* A copy delayed past the maximum message lifetime is never delivered:
   it counts as dropped and is traced as expired. A delay that keeps the
   copy inside the lifetime still delivers. *)
let test_delay_beyond_lifetime_expires () =
  run_sim (fun () ->
      let net = mknet () in
      let tracer = Metrics.Tracer.create () in
      Transport.set_tracer net tracer;
      let hits = ref 0 in
      let svc =
        Transport.serve ~loc:Location.va ~name:"sink" (fun () -> incr hits)
      in
      let h =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
            Transport.Delay Transport.max_message_age)
      in
      Transport.post net ~from:Location.ca svc ();
      Engine.sleep (3.0 *. Transport.max_message_age);
      Alcotest.(check int) "never delivered" 0 !hits;
      Alcotest.(check int) "counted as dropped" 1
        (Transport.messages_dropped net);
      Alcotest.(check (option int)) "traced as expired" (Some 1)
        (List.assoc_opt ("sink", "expired") (Metrics.Tracer.fault_counts tracer));
      Transport.remove_fault net h;
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
             Transport.Delay (Transport.max_message_age -. 100.0))
          : int);
      Transport.post net ~from:Location.ca svc ();
      Engine.sleep Transport.max_message_age;
      Alcotest.(check int) "inside the lifetime: delivered" 1 !hits)

(* --- Composable fault hooks ---------------------------------------- *)

let test_fault_hooks_compose () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      (* Two stacked hooks: the first non-Deliver verdict wins, in
         registration order. *)
      let h1 =
        Transport.add_fault net (fun ~src:_ ~dst:_ ~label:_ ->
            Transport.Delay 100.0)
      in
      let h2 =
        Transport.add_fault net (fun ~src ~dst:_ ~label:_ ->
            if src = Location.ca then Transport.Drop else Transport.Deliver)
      in
      Alcotest.(check int) "two active hooks" 2 (Transport.active_faults net);
      let t0 = Engine.now () in
      ignore (Transport.call net ~from:Location.ca svc 1);
      (* h1's delay wins on both legs even though h2 would drop. *)
      check_float "delays, not drops" (68.0 +. 200.0) (Engine.now () -. t0);
      Transport.remove_fault net h1;
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:200.0 svc 2 in
      Alcotest.(check (option int)) "h2 now drops" None r;
      Transport.remove_fault net h2;
      Alcotest.(check int) "no active hooks" 0 (Transport.active_faults net);
      let t1 = Engine.now () in
      ignore (Transport.call net ~from:Location.ca svc 3);
      check_float "clean again" 68.0 (Engine.now () -. t1))

let test_partition_and_heal () =
  run_sim (fun () ->
      let net = mknet () in
      let echo_va = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      let echo_jp = Transport.serve ~loc:Location.jp ~name:"echo-jp" Fun.id in
      let h = Transport.partition net [ Location.ca; Location.jp ] in
      let r = Transport.call_timeout net ~from:Location.ca ~timeout:300.0 echo_va 1 in
      Alcotest.(check (option int)) "cross-partition dropped" None r;
      let r2 = Transport.call_timeout net ~from:Location.ca ~timeout:300.0 echo_jp 2 in
      Alcotest.(check (option int)) "same-side delivered" (Some 2) r2;
      Transport.remove_fault net h;
      let r3 = Transport.call_timeout net ~from:Location.ca ~timeout:300.0 echo_va 3 in
      Alcotest.(check (option int)) "healed" (Some 3) r3)

let test_fault_rng_independent_of_jitter () =
  (* Fault decisions draw from a dedicated stream: consuming it must not
     shift the jitter samples of an identically-seeded transport. *)
  let samples net =
    List.init 50 (fun _ -> Transport.one_way net Location.jp Location.va)
  in
  let net1 = Transport.create ~jitter_sigma:0.1 ~rng:(Rng.create 7) () in
  let net2 = Transport.create ~jitter_sigma:0.1 ~rng:(Rng.create 7) () in
  for _ = 1 to 100 do
    ignore (Rng.float (Transport.fault_rng net2) 1.0)
  done;
  List.iter2 (check_float "jitter stream unperturbed") (samples net1)
    (samples net2)

let test_post_delivers () =
  run_sim (fun () ->
      let net = mknet () in
      let got = ref [] in
      let svc =
        Transport.serve ~loc:Location.va ~name:"sink" (fun x -> got := x :: !got)
      in
      let t0 = Engine.now () in
      Transport.post net ~from:Location.ca svc 1;
      check_float "post returns immediately" t0 (Engine.now ());
      Engine.sleep 100.0;
      Alcotest.(check (list int)) "delivered" [ 1 ] !got)

let test_message_counts () =
  run_sim (fun () ->
      let net = mknet () in
      let svc = Transport.serve ~loc:Location.va ~name:"echo" Fun.id in
      ignore (Transport.call net ~from:Location.ca svc 1);
      Transport.post net ~from:Location.ca svc 2;
      Engine.sleep 500.0;
      (* call = request + response; post = request + discarded response. *)
      Alcotest.(check int) "sent" 4 (Transport.messages_sent net))

let () =
  Alcotest.run "net"
    [
      ( "location",
        [
          Alcotest.test_case "rtt symmetric" `Quick test_rtt_symmetric;
          Alcotest.test_case "table2 values" `Quick test_rtt_table2;
          Alcotest.test_case "unknown raises" `Quick test_rtt_unknown;
        ] );
      ( "transport",
        [
          Alcotest.test_case "one_way no jitter" `Quick test_one_way_no_jitter;
          Alcotest.test_case "jitter tail" `Quick test_jitter_tail;
          Alcotest.test_case "call roundtrip latency" `Quick
            test_call_roundtrip_latency;
          Alcotest.test_case "call includes handler time" `Quick
            test_call_includes_handler_time;
          Alcotest.test_case "handlers run concurrently" `Quick
            test_concurrent_handlers;
          Alcotest.test_case "call_timeout success" `Quick
            test_call_timeout_success;
          Alcotest.test_case "call_timeout drop" `Quick test_call_timeout_drop;
          Alcotest.test_case "call_timeout cancels timer" `Quick
            test_call_timeout_cancels_timer;
          Alcotest.test_case "call_timeout stats" `Quick test_call_timeout_stats;
          Alcotest.test_case "call_timeout late reply" `Quick
            test_call_timeout_late_reply;
          Alcotest.test_case "call_timeout under chaos hook" `Quick
            test_call_timeout_under_chaos_hook;
          Alcotest.test_case "response drop" `Quick test_response_drop;
          Alcotest.test_case "duplicate fault" `Quick test_duplicate_fault;
          Alcotest.test_case "delay fault" `Quick test_delay_fault;
          Alcotest.test_case "delay beyond lifetime expires" `Quick
            test_delay_beyond_lifetime_expires;
          Alcotest.test_case "fault hooks compose" `Quick
            test_fault_hooks_compose;
          Alcotest.test_case "partition and heal" `Quick
            test_partition_and_heal;
          Alcotest.test_case "fault rng independent of jitter" `Quick
            test_fault_rng_independent_of_jitter;
          Alcotest.test_case "post delivers" `Quick test_post_delivers;
          Alcotest.test_case "message counts" `Quick test_message_counts;
        ] );
    ]
