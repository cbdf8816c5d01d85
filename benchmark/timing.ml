(* Real-clock measurement helpers: process CPU time, the machine-drift
   calibration loop, and samples of fixed tasks.

   On a shared machine a neighbour can slow this process by up to a half
   for seconds at a time, and process CPU time does not hide it. A fixed
   task therefore reports its fastest sample, and a throughput a high
   percentile of its slices: what the code costs in the machine's quieter
   moments, which a busy neighbour for part of a run does not move. *)

let cpu () = Sys.time ()

let fastest l = List.fold_left Float.min infinity l

(* A fixed integer loop owned by the benchmark — no program code — timed
   before each workload. Its rate moves with the machine (frequency, a
   noisy neighbour), not with the code, so [compare] can tell the two
   apart. Fastest of [bursts] bursts of [iters] iterations. *)
let calib_mops ?(bursts = 5) ?(iters = 10_000_000) () =
  let table = Array.make 4096 0 in
  let burst () =
    let x = ref 0x2545F491 and acc = ref 0 in
    let c0 = cpu () in
    for i = 1 to iters do
      x := !x lxor ((!x lsl 13) land 0xFFFFFFFF);
      x := !x lxor (!x lsr 7);
      x := !x lxor ((!x lsl 17) land 0xFFFFFFFF);
      let j = !x land 4095 in
      table.(j) <- table.(j) + i;
      acc := !acc + table.(j)
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int iters /. 1e6 /. Float.max 1e-9 (cpu () -. c0)
  in
  List.fold_left Float.max 0.0 (List.init bursts (fun _ -> burst ()))

(* The fastest of [n] samples of the CPU seconds of one call of [f], where
   each sample times a batch of calls long enough (at least [min_cpu])
   for the clock's resolution not to matter. *)
let per_call ~n ~min_cpu f =
  let batch k =
    let c0 = cpu () in
    for _ = 1 to k do
      f ()
    done;
    cpu () -. c0
  in
  let rec size k = if k >= 1 lsl 20 || batch k >= min_cpu then k else size (2 * k) in
  let k = size 1 in
  fastest (List.init n (fun _ -> batch k /. float_of_int k))

(* [n] samples of a measurement that times itself: [f] returns the CPU
   seconds of the part that counts, and a sample averages calls until
   [min_cpu] of it has been measured. Each sample starts from a finished
   major GC cycle, so no sample inherits another's collection work. *)
let self_timed ~n ~min_cpu f =
  let sample () =
    Gc.full_major ();
    let total = ref 0.0 and calls = ref 0 in
    while !calls = 0 || !total < min_cpu do
      total := !total +. f ();
      incr calls
    done;
    !total /. float_of_int !calls
  in
  List.init n (fun _ -> sample ())
