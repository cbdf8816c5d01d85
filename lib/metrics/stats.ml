type t = { samples : float Sim.Vec.t; mutable sorted : bool }

let create () = { samples = Sim.Vec.create (); sorted = true }

let add t x =
  Sim.Vec.push t.samples x;
  t.sorted <- false

let count t = Sim.Vec.length t.samples

let ensure_sorted t =
  if not t.sorted then begin
    let a = Array.init (count t) (Sim.Vec.get t.samples) in
    Array.sort Float.compare a;
    Array.iteri (Sim.Vec.set t.samples) a;
    t.sorted <- true
  end

(* Linear interpolation between order statistics (type-7 estimator, the
   R/NumPy default). Truncating the fractional rank would bias every
   reported percentile low — e.g. p99 over 50 samples landing on index
   48 ≈ p97.9. *)
let percentile t p =
  if count t = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: rank out of range";
  ensure_sorted t;
  let n = count t in
  let rank = p *. float_of_int (n - 1) in
  let lo = Stdlib.min (n - 1) (int_of_float (Float.floor rank)) in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  let a = Sim.Vec.get t.samples lo and b = Sim.Vec.get t.samples hi in
  a +. (frac *. (b -. a))

let median t = percentile t 0.5

let p99 t = percentile t 0.99

let mean t =
  if count t = 0 then invalid_arg "Stats.mean: empty";
  Sim.Vec.fold_left ( +. ) 0.0 t.samples /. float_of_int (count t)

let min t = percentile t 0.0

let max t = percentile t 1.0

let merge a b =
  let t = create () in
  Sim.Vec.iter (add t) a.samples;
  Sim.Vec.iter (add t) b.samples;
  t

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let histogram t ~buckets =
  if count t = 0 then invalid_arg "Stats.histogram: empty";
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  let lo = min t and hi = max t in
  let width = (hi -. lo) /. float_of_int buckets in
  let width = if width <= 0.0 then 1.0 else width in
  let counts = Array.make buckets 0 in
  Sim.Vec.iter
    (fun x ->
      let b =
        Stdlib.min (buckets - 1) (int_of_float ((x -. lo) /. width))
      in
      counts.(b) <- counts.(b) + 1)
    t.samples;
  List.init buckets (fun b ->
      (lo +. (float_of_int b *. width), lo +. (float_of_int (b + 1) *. width), counts.(b)))
