open Effect
open Effect.Deep

(* An all-float record is stored flat, so setting a field allocates
   nothing. [delay] carries a [sleep]'s duration to the handler, so the
   [Sleep] effect has no payload. *)
type clock = { mutable now : float; mutable delay : float }

type t = {
  clock : clock;
  mutable seq : int;
  (* Events due now, in push order: a ring of callbacks beside their
     seqs. Each was pushed at [clock.now], and the clock does not move
     while one is pending. *)
  mutable fifo : (unit -> unit) array;
  mutable fifo_seqs : int array;
  mutable head : int;
  mutable count : int;
  (* Future and armed events: a binary min-heap on (time, seq) whose
     keys and slot ids sit in parallel arrays by heap position, so a
     sift moves only floats and ints. *)
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  (* The slot table, by slot id: a heap event's callback, its
     generation (-1 unless armed) and its heap position. A slot does
     not move while its event is queued; [free] stacks the unused ids.
     The heap never outgrows the table, so all seven arrays share one
     capacity. *)
  mutable runs : (unit -> unit) array;
  mutable gens : int array;
  mutable pos : int array;
  mutable free : int array;
  mutable nfree : int;
  root_rng : Rng.t;
  mutable fibers : int;
  mutable processed : int;
  mutable failure : exn option;
  (* Every fiber's handler shares these, built once per engine. *)
  retc : unit -> unit;
  effc : 'c. 'c Effect.t -> (('c, unit) continuation -> unit) option;
}

(* [gen] is unique across engines, so an event that ran, was cancelled
   or belongs to another engine never matches its slot's generation,
   even after the slot is reused. *)
type event = { slot : int; gen : int }

exception Not_running
exception Fiber_error of string * exn

type _ Effect.t +=
  | Sleep : unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Fills every vacated callback slot, of the FIFO and of the slot
   table alike: a vacated slot pins nothing. *)
let noop () = ()

let generation = ref 0

(* The FIFO of events due now. Its capacity is a power of two. *)
let grow_fifo t =
  let cap = Array.length t.fifo in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let fifo = Array.make ncap noop and fifo_seqs = Array.make ncap 0 in
  for j = 0 to t.count - 1 do
    let i = (t.head + j) land (cap - 1) in
    fifo.(j) <- t.fifo.(i);
    fifo_seqs.(j) <- t.fifo_seqs.(i)
  done;
  t.fifo <- fifo;
  t.fifo_seqs <- fifo_seqs;
  t.head <- 0

let push_now t run =
  if t.count = Array.length t.fifo then grow_fifo t;
  let i = (t.head + t.count) land (Array.length t.fifo - 1) in
  t.fifo.(i) <- run;
  t.fifo_seqs.(i) <- t.seq;
  t.seq <- t.seq + 1;
  t.count <- t.count + 1

let pop_fifo t =
  let i = t.head in
  let run = t.fifo.(i) in
  t.fifo.(i) <- noop;
  t.head <- (i + 1) land (Array.length t.fifo - 1);
  t.count <- t.count - 1;
  run

(* The slot table and the heap grow together; new ids stack so that the
   lowest is taken first. *)
let grow_slots t =
  let cap = Array.length t.runs in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.runs <- extend t.runs noop;
  t.gens <- extend t.gens (-1);
  t.pos <- extend t.pos 0;
  t.free <- extend t.free 0;
  for s = ncap - 1 downto cap do
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  done

(* The event order: time, then push order. Times are never NaN (every
   push rejects them), so [<] and [=] are the total order
   [Float.compare] gives. *)
let[@inline] before (at : float) (seq : int) at' seq' =
  at < at' || (at = at' && seq < seq')

let[@inline] place t i at seq slot =
  Float.Array.set t.times i at;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.pos.(slot) <- i

(* Both sifts take the key stored at position [k] and move it from the
   hole at [i] to where it stops. *)
let sift_up t i k =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let at = Float.Array.get times k and seq = seqs.(k) and slot = slots.(k) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pat = Float.Array.get times p and pseq = seqs.(p) in
    if before at seq pat pseq then begin
      let ps = slots.(p) in
      Float.Array.set times !i pat;
      seqs.(!i) <- pseq;
      slots.(!i) <- ps;
      pos.(ps) <- !i;
      i := p
    end
    else moving := false
  done;
  place t !i at seq slot

let sift_down t i k =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let size = t.size in
  let at = Float.Array.get times k and seq = seqs.(k) and slot = slots.(k) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else
      let r = l + 1 in
      let c =
        if
          r < size
          && before (Float.Array.get times r) seqs.(r) (Float.Array.get times l)
               seqs.(l)
        then r
        else l
      in
      let cat = Float.Array.get times c and cseq = seqs.(c) in
      if before cat cseq at seq then begin
        let cs = slots.(c) in
        Float.Array.set times !i cat;
        seqs.(!i) <- cseq;
        slots.(!i) <- cs;
        pos.(cs) <- !i;
        i := c
      end
      else moving := false
  done;
  place t !i at seq slot

(* Queues [run] in the heap at [at] (at least the clock's time) and
   returns its slot. Inlined, so [at] is never boxed. *)
let[@inline] push_later t at run =
  if t.nfree = 0 then grow_slots t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  t.runs.(s) <- run;
  let i = t.size in
  t.size <- i + 1;
  place t i at t.seq s;
  t.seq <- t.seq + 1;
  sift_up t i i;
  s

(* Takes heap position [i] out: the last key fills the hole and sifts
   whichever way restores the order. The slot goes back to the free
   stack holding [noop]. *)
let remove t i =
  let s = t.slots.(i) in
  t.runs.(s) <- noop;
  t.gens.(s) <- -1;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then
    let p = (i - 1) / 2 in
    if
      i > 0
      && before
           (Float.Array.get t.times last)
           t.seqs.(last) (Float.Array.get t.times p) t.seqs.(p)
    then sift_up t i last
    else sift_down t i last

let pop_top t =
  let run = t.runs.(t.slots.(0)) in
  t.clock.now <- Float.Array.get t.times 0;
  remove t 0;
  run

(* The engine currently executing; set for the duration of [run]. The
   simulator is strictly single-domain, so a plain ref is safe. *)
let current : t option ref = ref None

let get () = match !current with Some t -> t | None -> raise Not_running

(* An armed event goes to the heap even when due now, so that it has a
   slot to cancel. *)
let arm ~at run =
  let t = get () in
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  let s = push_later t (if at > t.clock.now then at else t.clock.now) run in
  incr generation;
  t.gens.(s) <- !generation;
  { slot = s; gen = !generation }

let schedule ~at run =
  let t = get () in
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  if at > t.clock.now then ignore (push_later t at run) else push_now t run

let cancel ev =
  match !current with
  | Some t when ev.slot < Array.length t.gens && t.gens.(ev.slot) = ev.gen ->
      remove t t.pos.(ev.slot)
  | Some _ | None -> ()

let now () = (get ()).clock.now

let rng () = (get ()).root_rng

let events_processed t = t.processed

let live_fibers t = t.fibers

let sleep d =
  if Float.is_nan d then invalid_arg "Engine.sleep: NaN duration";
  (get ()).clock.delay <- d;
  perform Sleep

let yield () =
  (get ()).clock.delay <- 0.0;
  perform Sleep

let suspend register = perform (Suspend register)

(* A negative delay wakes the fiber now, like a zero one. *)
let wake t (k : (unit, unit) continuation) =
  let now = t.clock.now in
  let at = now +. t.clock.delay in
  let resume () = continue k () in
  if at > now then ignore (push_later t at resume) else push_now t resume

let create ?(seed = 42) () =
  let root_rng = Rng.create seed in
  let rec t =
    {
      clock = { now = 0.0; delay = 0.0 };
      seq = 0;
      fifo = [||];
      fifo_seqs = [||];
      head = 0;
      count = 0;
      times = Float.Array.create 0;
      seqs = [||];
      slots = [||];
      size = 0;
      runs = [||];
      gens = [||];
      pos = [||];
      free = [||];
      nfree = 0;
      root_rng;
      fibers = 0;
      processed = 0;
      failure = None;
      retc = (fun () -> t.fibers <- t.fibers - 1);
      effc =
        (fun (type c) (eff : c Effect.t) :
             ((c, unit) continuation -> unit) option ->
          match eff with
          | Sleep -> on_sleep
          | Suspend register ->
              Some
                (fun (k : (c, unit) continuation) ->
                  let resumed = ref false in
                  register (fun v ->
                      if !resumed then
                        invalid_arg "Engine.suspend: resumed twice"
                      else begin
                        resumed := true;
                        push_now t (fun () -> continue k v)
                      end))
          | _ -> None);
    }
  and on_sleep : ((unit, unit) continuation -> unit) option =
    Some (fun k -> wake t k)
  in
  t

let run_fiber t name f =
  t.fibers <- t.fibers + 1;
  match_with f ()
    {
      retc = t.retc;
      exnc =
        (fun e ->
          t.fibers <- t.fibers - 1;
          if t.failure = None then t.failure <- Some (Fiber_error (name, e)));
      effc = t.effc;
    }

let spawn ?(name = "fiber") f =
  let t = get () in
  push_now t (fun () -> run_fiber t name f)

(* Runs the next event unless none is left or it is due after [limit],
   and says whether it ran. The next event is the FIFO's head, unless
   the heap's top is also due now and was pushed first. *)
let step t limit =
  if t.count > 0 then
    if t.clock.now > limit then false
    else begin
      let run =
        if
          t.size > 0
          && Float.Array.get t.times 0 = t.clock.now
          && t.seqs.(0) < t.fifo_seqs.(t.head)
        then pop_top t
        else pop_fifo t
      in
      t.processed <- t.processed + 1;
      run ();
      true
    end
  else if t.size > 0 && not (Float.Array.get t.times 0 > limit) then begin
    let run = pop_top t in
    t.processed <- t.processed + 1;
    run ();
    true
  end
  else false

let run ?until t main =
  (match !current with
  | Some _ -> invalid_arg "Engine.run: an engine is already running"
  | None -> ());
  current := Some t;
  let finish () = current := None in
  let limit = match until with Some l -> l | None -> infinity in
  (try
     push_now t (fun () -> run_fiber t "main" main);
     while t.failure = None && step t limit do
       ()
     done
   with e ->
     finish ();
     raise e);
  finish ();
  match t.failure with
  | Some e ->
      t.failure <- None;
      raise e
  | None -> ()
