(* Tests for the workload generators: Zipfian rank sampling, weighted
   mixes, and the open-loop Poisson driver's arrival process on the
   virtual clock. *)

open Sim

let run_sim ?(seed = 1) f =
  let e = Engine.create ~seed () in
  Engine.run e f

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let counts_of ~n ~theta ~draws ~seed =
  let z = Workload.Zipf.create ~n ~theta in
  let rng = Rng.create seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  counts

(* Sanity: with theta = 0.99 (the paper's social/forum skew) empirical
   frequencies must be monotone non-increasing in rank for the hot head,
   and rank 0 must dominate the tail by a wide margin. *)
let test_zipf_frequency_ordering () =
  let n = 50 and draws = 20_000 in
  let counts = counts_of ~n ~theta:0.99 ~draws ~seed:7 in
  for r = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d at least as hot as rank %d" r (r + 1))
      true
      (counts.(r) >= counts.(r + 1))
  done;
  Alcotest.(check bool) "head dominates mid-tail 5x" true
    (counts.(0) > 5 * counts.(n / 2));
  Alcotest.(check int) "every draw accounted" draws
    (Array.fold_left ( + ) 0 counts)

(* The head's share must grow monotonically with theta: uniform (0.0)
   gives rank 0 ~ 1/n of the draws, and each increase in skew
   concentrates more mass on it. *)
let test_zipf_skew_monotone_in_theta () =
  let n = 100 and draws = 30_000 in
  let head_share theta =
    let counts = counts_of ~n ~theta ~draws ~seed:11 in
    float_of_int counts.(0) /. float_of_int draws
  in
  let shares = List.map head_share [ 0.0; 0.5; 0.9; 0.99; 1.2 ] in
  let rec check_increasing = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "share %.3f < %.3f" a b)
          true (a < b);
        check_increasing rest
    | [ _ ] | [] -> ()
  in
  check_increasing shares;
  (match shares with
  | uniform :: _ ->
      Alcotest.(check bool) "theta=0 is near-uniform" true
        (uniform < 2.5 /. float_of_int n)
  | [] -> Alcotest.fail "no shares");
  Alcotest.(check int) "n accessor" n
    (Workload.Zipf.n (Workload.Zipf.create ~n ~theta:0.99))

(* ------------------------------------------------------------------ *)
(* Mix                                                                 *)

let test_mix_proportions () =
  let mix = Workload.Mix.create [ ("a", 3.0); ("b", 1.0) ] in
  let rng = Rng.create 5 in
  let a = ref 0 and total = 10_000 in
  for _ = 1 to total do
    if Workload.Mix.sample mix rng = "a" then incr a
  done;
  let share = float_of_int !a /. float_of_int total in
  Alcotest.(check bool) "3:1 mix lands near 0.75" true
    (share > 0.70 && share < 0.80)

(* read_heavy: the empirical read-class share must track [read_share]
   and spread uniformly within each class, for any class sizes. *)
let test_read_heavy_proportions =
  QCheck.Test.make ~name:"read_heavy proportions" ~count:50
    QCheck.(
      quad (int_range 1 5) (int_range 1 5) (int_range 5 95) (int_range 0 10_000))
    (fun (n_reads, n_writes, share_pct, seed) ->
      let share = float_of_int share_pct /. 100.0 in
      let reads = List.init n_reads (fun i -> `Read i) in
      let writes = List.init n_writes (fun i -> `Write i) in
      let mix = Workload.Mix.read_heavy ~read_share:share ~reads ~writes () in
      let rng = Rng.create (seed + 1) in
      (* Enough draws that a 5%-read mix over 5 read items still puts
         ~400 draws on each, so the tolerances below sit several standard
         deviations out and the property does not fail on sampling noise. *)
      let draws = 40_000 in
      let read_counts = Array.make n_reads 0 in
      let read_total = ref 0 in
      for _ = 1 to draws do
        match Workload.Mix.sample mix rng with
        | `Read i ->
            incr read_total;
            read_counts.(i) <- read_counts.(i) + 1
        | `Write _ -> ()
      done;
      let got = float_of_int !read_total /. float_of_int draws in
      (* Class share within sampling noise of the requested share. *)
      abs_float (got -. share) < 0.05
      (* ... and uniform within the read class: every item near 1/n of
         the class draws. *)
      && Array.for_all
           (fun c ->
             abs_float
               ((float_of_int c /. float_of_int (Stdlib.max 1 !read_total))
               -. (1.0 /. float_of_int n_reads))
             < 0.08)
           read_counts)

let test_read_heavy_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty reads rejected" true
    (raises (fun () -> Workload.Mix.read_heavy ~reads:[] ~writes:[ `W ] ()));
  Alcotest.(check bool) "empty writes rejected" true
    (raises (fun () -> Workload.Mix.read_heavy ~reads:[ `R ] ~writes:[] ()));
  Alcotest.(check bool) "share 0 rejected" true
    (raises (fun () ->
         Workload.Mix.read_heavy ~read_share:0.0 ~reads:[ `R ] ~writes:[ `W ] ()));
  Alcotest.(check bool) "share 1 rejected" true
    (raises (fun () ->
         Workload.Mix.read_heavy ~read_share:1.0 ~reads:[ `R ] ~writes:[ `W ] ()))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* Open-loop arrivals on the virtual clock: the driver must space
   arrivals like a Poisson process at [rate] — mean gap ~ 1000/rate ms,
   independent of how long each handler runs (that is what makes it
   open-loop) — and return only after every spawned handler finished. *)
let test_driver_open_loop_spacing () =
  run_sim (fun () ->
      let rate = 100.0 (* req/s -> 10 ms mean gap *) in
      let duration = 20_000.0 in
      let stamps = ref [] in
      let completed = ref 0 in
      let n =
        Workload.Driver.run_open ~rate ~duration ~rng:(Rng.create 42)
          (fun ~arrival:_ ->
            stamps := Engine.now () :: !stamps;
            (* Handlers run far longer than the inter-arrival gap; an
               accidentally closed loop would collapse the rate. *)
            Engine.sleep 500.0;
            incr completed)
      in
      Alcotest.(check int) "returns after all handlers" n !completed;
      let stamps = List.rev !stamps in
      Alcotest.(check int) "one stamp per arrival" n (List.length stamps);
      (* ~rate * duration arrivals, within generous Poisson tolerance. *)
      let expected = rate *. duration /. 1000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "arrival count %d near %.0f" n expected)
        true
        (float_of_int n > 0.8 *. expected && float_of_int n < 1.2 *. expected);
      let rec gaps = function
        | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
        | [ _ ] | [] -> []
      in
      let gs = gaps stamps in
      List.iter
        (fun g -> Alcotest.(check bool) "gaps non-negative" true (g >= 0.0))
        gs;
      let mean = List.fold_left ( +. ) 0.0 gs /. float_of_int (List.length gs) in
      Alcotest.(check bool)
        (Printf.sprintf "mean gap %.2f ms near 10 ms" mean)
        true
        (mean > 8.0 && mean < 12.0);
      (* Exponential gaps: the spread is comparable to the mean —
         distinguishes Poisson arrivals from a fixed-interval ticker. *)
      let var =
        List.fold_left (fun acc g -> acc +. ((g -. mean) ** 2.0)) 0.0 gs
        /. float_of_int (List.length gs)
      in
      let cv = sqrt var /. mean in
      Alcotest.(check bool)
        (Printf.sprintf "coefficient of variation %.2f near 1" cv)
        true (cv > 0.7 && cv < 1.3);
      List.iter
        (fun t ->
          Alcotest.(check bool) "arrivals within duration" true
            (t <= duration +. 1.0))
        stamps)

(* Determinism: the same seed must yield the identical arrival train —
   the property the chaos campaign and benchmarks rely on. *)
let test_driver_open_loop_deterministic () =
  let trace seed =
    let stamps = ref [] in
    run_sim (fun () ->
        ignore
          (Workload.Driver.run_open ~rate:50.0 ~duration:2_000.0
             ~rng:(Rng.create seed) (fun ~arrival:_ ->
               stamps := Engine.now () :: !stamps)));
    List.rev !stamps
  in
  Alcotest.(check (list (float 1e-9))) "same seed, same arrivals" (trace 3)
    (trace 3);
  Alcotest.(check bool) "different seed differs" true (trace 3 <> trace 4)

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "frequency ordering" `Quick
            test_zipf_frequency_ordering;
          Alcotest.test_case "skew monotone in theta" `Quick
            test_zipf_skew_monotone_in_theta;
        ] );
      ( "mix",
        [
          Alcotest.test_case "proportions" `Quick test_mix_proportions;
          QCheck_alcotest.to_alcotest test_read_heavy_proportions;
          Alcotest.test_case "read_heavy validation" `Quick
            test_read_heavy_validation;
        ] );
      ( "driver",
        [
          Alcotest.test_case "open-loop spacing" `Quick
            test_driver_open_loop_spacing;
          Alcotest.test_case "open-loop deterministic" `Quick
            test_driver_open_loop_deterministic;
        ] );
    ]
