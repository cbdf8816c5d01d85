(* Tests for the metrics library: percentile interpolation in Stats and
   the request-scoped tracer (noop behavior, span trees, end-to-end
   phase attribution across the Speculative and Backup paths). *)

open Sim
open Fdsl.Ast
module Stats = Metrics.Stats
module Tracer = Metrics.Tracer
module Span = Metrics.Span
module Transport = Net.Transport
module Location = Net.Location
module Framework = Radical.Framework
module Runtime = Radical.Runtime

let checkf = Alcotest.(check (float 1e-9))

let run_sim ?(seed = 3) f =
  let e = Engine.create ~seed () in
  Engine.run e f

(* ------------------------------------------------------------------ *)
(* Stats.percentile — type-7 linear interpolation                      *)

let test_percentile_interpolation () =
  let s = Stats.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  checkf "median" 50.5 (Stats.median s);
  checkf "p99" 99.01 (Stats.p99 s);
  checkf "p90" 90.1 (Stats.percentile s 0.9);
  checkf "p0 = min" (Stats.min s) (Stats.percentile s 0.0);
  checkf "p100 = max" (Stats.max s) (Stats.percentile s 1.0)

let test_percentile_small_sets () =
  let one = Stats.of_list [ 42.0 ] in
  checkf "single-sample median" 42.0 (Stats.median one);
  checkf "single-sample p99" 42.0 (Stats.p99 one);
  let two = Stats.of_list [ 0.0; 1.0 ] in
  checkf "two-sample median interpolates" 0.5 (Stats.median two);
  let five = Stats.of_list [ 50.0; 10.0; 40.0; 20.0; 30.0 ] in
  checkf "five-sample median" 30.0 (Stats.median five);
  checkf "five-sample p25 on order statistic" 20.0 (Stats.percentile five 0.25);
  checkf "five-sample p90 between order statistics" 46.0
    (Stats.percentile five 0.9)

let test_percentile_rejects_bad_rank () =
  let s = Stats.of_list [ 1.0 ] in
  Alcotest.check_raises "rank above 1"
    (Invalid_argument "Stats.percentile: rank out of range") (fun () ->
      ignore (Stats.percentile s 1.5));
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Stats.percentile: rank out of range") (fun () ->
      ignore (Stats.percentile s (-0.1)))

(* ------------------------------------------------------------------ *)
(* Tracer: disabled                                                    *)

(* Runs outside any engine on purpose: the noop tracer must never touch
   the virtual clock, or instrumented code would raise Not_running. *)
let test_noop_tracer () =
  let t = Tracer.noop in
  Alcotest.(check bool) "disabled" false (Tracer.enabled t);
  let root = Tracer.root t "fn" in
  Alcotest.(check bool) "no root span" true (root = None);
  let child = Tracer.child t ~parent:root "phase" in
  Alcotest.(check bool) "no child span" true (child = None);
  Tracer.annotate root "k" "v";
  Tracer.stop child;
  Alcotest.(check int) "with_phase runs the thunk" 7
    (Tracer.with_phase t ~parent:root "p" (fun () -> 7));
  Tracer.register_exec t ~exec_id:"e1" root;
  Alcotest.(check bool) "no exec span" true
    (Tracer.exec_span t ~exec_id:"e1" = None);
  Tracer.finalize t ~fn:"fn" ~path:"Speculative" root;
  Alcotest.(check int) "no traces" 0 (Tracer.trace_count t);
  Alcotest.(check string) "empty json" "{}" (Tracer.phases_json t)

(* Every instrumented call site pays for the disabled tracer: 1,000
   rounds of the calls a request makes must not allocate a word. *)
let test_noop_tracer_allocates_nothing () =
  let t = Tracer.noop in
  let body () = () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    let root = Tracer.root t "fn" in
    let child = Tracer.child t ~parent:root "phase" in
    Tracer.annotate root "k" "v";
    Tracer.with_phase t ~parent:root "p" body;
    Tracer.record_wire t ~label:"lvi" 1.5;
    Tracer.stop child;
    Tracer.stop root
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. before)

(* ------------------------------------------------------------------ *)
(* Tracer: span trees                                                  *)

let test_span_tree_phases () =
  run_sim (fun () ->
      let t = Tracer.create () in
      let root = Tracer.root t "fn" in
      Tracer.with_phase t ~parent:root "a" (fun () -> Engine.sleep 5.0);
      let b = Tracer.child t ~parent:root "b" in
      Engine.sleep 7.0;
      Tracer.stop b;
      Tracer.finalize t ~fn:"fn" ~path:"Speculative" root;
      Alcotest.(check int) "one trace" 1 (Tracer.trace_count t);
      let get phase =
        List.assoc ("fn", phase, "Speculative") (Tracer.phase_stats t)
      in
      checkf "phase a duration" 5.0 (Stats.mean (get "a"));
      checkf "phase b duration" 7.0 (Stats.mean (get "b"));
      checkf "root recorded as total" 12.0 (Stats.mean (get "total")))

let test_open_span_not_aggregated () =
  run_sim (fun () ->
      let t = Tracer.create () in
      let root = Tracer.root t "fn" in
      let abandoned = Tracer.child t ~parent:root "speculate" in
      Engine.sleep 3.0;
      Tracer.finalize t ~fn:"fn" ~path:"Backup" root;
      ignore abandoned;
      Alcotest.(check bool) "open phase missing from histograms" true
        (not
           (List.mem_assoc ("fn", "speculate", "Backup") (Tracer.phase_stats t)));
      (* ... but still hangs in the retained tree. *)
      match Tracer.slowest ~k:1 t with
      | [ sp ] ->
          Alcotest.(check (list string)) "child kept" [ "speculate" ]
            (List.map (fun (c : Span.t) -> c.label) (Span.children sp))
      | _ -> Alcotest.fail "expected one retained trace")

let test_slowest_ordering () =
  run_sim (fun () ->
      let t = Tracer.create () in
      List.iter
        (fun d ->
          let root = Tracer.root t (Printf.sprintf "fn%.0f" d) in
          Engine.sleep d;
          Tracer.finalize t ~fn:"fn" ~path:"Speculative" root)
        [ 10.0; 30.0; 20.0 ];
      match Tracer.slowest ~k:2 t with
      | [ a; b ] ->
          Alcotest.(check string) "slowest first" "fn30" a.Span.label;
          Alcotest.(check string) "then next" "fn20" b.Span.label
      | l -> Alcotest.fail (Printf.sprintf "expected 2, got %d" (List.length l)))

(* ------------------------------------------------------------------ *)
(* Tracer: end-to-end through the framework                            *)

let get_fn =
  { fn_name = "get"; params = [ "k" ]; body = Compute (100.0, Read (Input "k")) }

let put_fn =
  {
    fn_name = "put";
    params = [ "k"; "v" ];
    body = Compute (20.0, Seq [ Write (Input "k", Input "v"); Input "v" ]);
  }

(* Dependent read (pointer chase): a stale cache can mispredict the
   read set, forcing the backup path to re-predict and re-lock — the
   server-side spans that must nest under backup_exec. *)
let deref_fn =
  { fn_name = "deref"; params = [ "k" ]; body = Read (Read (Input "k")) }

(* One Speculative and one Backup request: the runtime's phases and the
   server's phases must land in the same per-path histograms, and the
   retained span trees must nest the phases under each request root. *)
let test_trace_end_to_end () =
  let tracer = Tracer.create () in
  run_sim ~seed:11 (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~tracer
          ~rng:(Rng.split (Engine.rng ()))
          ()
      in
      let fw =
        Framework.create ~tracer ~net
          ~funcs:[ get_fn; put_fn; deref_fn ]
          ~data:[ ("x", Dval.Str "v1"); ("ptr", Dval.Str "x") ]
          ()
      in
      let o1 = Framework.invoke fw ~from:Location.ca "get" [ Dval.Str "x" ] in
      Alcotest.(check bool) "warm read is speculative" true
        (o1.path = Runtime.Speculative);
      ignore
        (Framework.invoke fw ~from:Location.ca "put"
           [ Dval.Str "x"; Dval.Str "v2" ]);
      Engine.sleep 300.0;
      (* DE's cache is now stale: validation fails, backup path. *)
      let o2 = Framework.invoke fw ~from:Location.de "deref" [ Dval.Str "ptr" ] in
      Alcotest.(check bool) "stale read is backup" true
        (o2.path = Runtime.Backup);
      Engine.sleep 500.0;
      Framework.stop fw);
  Alcotest.(check int) "three traces" 3 (Tracer.trace_count tracer);
  let stats = Tracer.phase_stats tracer in
  let has key = List.mem_assoc key stats in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (let f, p, pa = key in
         Printf.sprintf "histogram (%s, %s, %s) present" f p pa)
        true (has key))
    [
      ("get", "invoke_overhead", "Speculative");
      ("get", "frw_predict", "Speculative");
      ("get", "speculate", "Speculative");
      ("get", "lvi_rtt", "Speculative");
      (* Read-only function: the server answers on the validate-only
         fast path, so there is no lock_wait phase. *)
      ("get", "ro_validate", "Speculative");
      ("get", "total", "Speculative");
      (* The writing put takes the full locked path. *)
      ("put", "lock_wait", "Speculative");
      ("put", "validate", "Speculative");
      ("put", "total", "Speculative");
      ("deref", "backup_exec", "Backup");
      ("deref", "cache_repair", "Backup");
      ("deref", "total", "Backup");
    ];
  (* The speculative get: 6 ms cache access + 100 ms compute. *)
  checkf "speculate phase duration" 106.0
    (Stats.mean (List.assoc ("get", "speculate", "Speculative") stats));
  (* Span trees nest: every retained root has its phases as children. *)
  let trees = Tracer.slowest ~k:3 tracer in
  Alcotest.(check int) "three retained trees" 3 (List.length trees);
  List.iter
    (fun (root : Span.t) ->
      Alcotest.(check bool) "root has no parent" true (root.parent = None);
      let labels = List.map (fun (c : Span.t) -> c.Span.label) (Span.children root) in
      Alcotest.(check bool) "phases nested under root" true
        (List.mem "invoke_overhead" labels && List.mem "lvi_rtt" labels);
      Span.iter
        (fun sp ->
          Alcotest.(check bool)
            (sp.Span.label ^ " closed within root")
            true
            (Span.closed sp
            && Span.duration sp >= 0.0
            && sp.Span.start >= root.Span.start))
        root)
    trees;
  let backup_root =
    List.find (fun r -> Span.note r "path" = Some "Backup") trees
  in
  let backup_labels =
    List.map (fun (c : Span.t) -> c.Span.label) (Span.children backup_root)
  in
  Alcotest.(check bool) "backup tree has backup_exec under root" true
    (List.mem "backup_exec" backup_labels);
  (* The server-side lock_wait of the backup re-lock nests under the
     backup_exec span, not the root. *)
  let backup_exec =
    List.find
      (fun (c : Span.t) -> c.Span.label = "backup_exec")
      (Span.children backup_root)
  in
  Alcotest.(check bool) "re-lock nests under backup_exec" true
    (List.exists
       (fun (c : Span.t) -> c.Span.label = "lock_wait")
       (Span.children backup_exec));
  (* JSON smoke: document present with all three traces and wire times. *)
  let json = Tracer.phases_json tracer in
  let contains_plain needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json counts traces" true
    (contains_plain "\"traces\": 3");
  Alcotest.(check bool) "json has Backup path" true
    (contains_plain "\"Backup\"");
  Alcotest.(check bool) "json has wire stats" true (contains_plain "\"lvi\"")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "percentile",
        [
          Alcotest.test_case "linear interpolation" `Quick
            test_percentile_interpolation;
          Alcotest.test_case "small sample sets" `Quick
            test_percentile_small_sets;
          Alcotest.test_case "bad rank rejected" `Quick
            test_percentile_rejects_bad_rank;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "noop is inert" `Quick test_noop_tracer;
          Alcotest.test_case "disabled tracer allocates nothing" `Quick
            test_noop_tracer_allocates_nothing;
          Alcotest.test_case "span tree phases" `Quick test_span_tree_phases;
          Alcotest.test_case "open span not aggregated" `Quick
            test_open_span_not_aggregated;
          Alcotest.test_case "slowest ordering" `Quick test_slowest_ordering;
          Alcotest.test_case "end-to-end trace" `Quick test_trace_end_to_end;
        ] );
    ]
