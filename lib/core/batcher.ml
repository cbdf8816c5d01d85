open Sim

let max_batch = 64

type 'a t = {
  window : float;
  flush : 'a list -> unit;
  on_flush : size:int -> queue_delay:float -> unit;
  mutable buf : 'a list list; (* newest addition first *)
  mutable count : int;
  mutable oldest : float; (* enqueue time of the round's first element *)
  mutable round : unit Ivar.t; (* completion of the currently-filling round *)
  mutable timer : Timer.t option;
  mutable flushing : bool;
  mutable flushes : int;
}

let create ~window ?(on_flush = fun ~size:_ ~queue_delay:_ -> ()) flush =
  if window < 0.0 then invalid_arg "Batcher.create: negative window";
  {
    window;
    flush;
    on_flush;
    buf = [];
    count = 0;
    oldest = 0.0;
    round = Ivar.create ();
    timer = None;
    flushes = 0;
    flushing = false;
  }

let flushes t = t.flushes

(* Empty the buffer and open the next round; returns the drained
   elements (oldest first) and the drained round's ivar. *)
let drain t =
  (match t.timer with Some tm -> Timer.cancel tm | None -> ());
  t.timer <- None;
  let items = List.concat (List.rev t.buf) in
  let round = t.round in
  t.buf <- [];
  t.count <- 0;
  t.round <- Ivar.create ();
  (items, round)

let rec do_flush t =
  if t.count > 0 && not t.flushing then begin
    t.flushing <- true;
    let delay = Engine.now () -. t.oldest in
    let items, round = drain t in
    t.flush items;
    t.flushes <- t.flushes + 1;
    t.on_flush ~size:(List.length items) ~queue_delay:delay;
    Ivar.fill round ();
    t.flushing <- false;
    (* Elements that arrived during the flush could not arm a timer
       (arming is suppressed while flushing); give them their own round. *)
    if t.count > 0 then if t.count >= max_batch then do_flush t else arm t
  end

(* A fired timer cannot be cancelled: if a [take] drains its round before
   its fiber runs and an [add] arms the next round's timer, the fiber must
   leave that round to its own timer. *)
and arm t =
  if t.timer = None && not t.flushing then begin
    let self = ref None in
    let timer =
      Some
        (Timer.after t.window (fun () ->
             if t.timer == !self then begin
               t.timer <- None;
               do_flush t
             end))
    in
    self := timer;
    t.timer <- timer
  end

let add t items =
  if items <> [] then begin
    if t.count = 0 then t.oldest <- Engine.now ();
    t.buf <- items :: t.buf;
    t.count <- t.count + List.length items;
    if t.count >= max_batch && not t.flushing then do_flush t else arm t
  end

let submit_all t items =
  if items <> [] then begin
    let round = t.round in
    add t items;
    Ivar.read round
  end

let take t =
  if t.count = 0 then []
  else begin
    let items, round = drain t in
    Ivar.fill round ();
    items
  end
