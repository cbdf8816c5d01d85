open Effect
open Effect.Deep

(* [slot] is the event's last index in the heap: it is queued while
   [heap.(slot) == ev]. *)
type event = {
  time : float;
  seq : int;
  run : unit -> unit;
  mutable slot : int;
}

type t = {
  mutable now : float;
  mutable seq : int;
  mutable heap : event array;
  mutable size : int;
  root_rng : Rng.t;
  mutable fibers : int;
  mutable processed : int;
  mutable failure : exn option;
}

exception Not_running
exception Fiber_error of string * exn

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Fills every slot at or above [size]: a vacated slot pins nothing. *)
let vacant = { time = infinity; seq = max_int; run = ignore; slot = -1 }

let create ?(seed = 42) () =
  {
    now = 0.0;
    seq = 0;
    heap = [||];
    size = 0;
    root_rng = Rng.create seed;
    fibers = 0;
    processed = 0;
    failure = None;
  }

(* The event order: time, then push order. Times are never NaN (push
   rejects them), so [<] and [=] are the total order [Float.compare]
   gives. *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@inline] place t i ev =
  t.heap.(i) <- ev;
  ev.slot <- i

(* Both sifts move [ev] from the hole at [i] and place it where it stops. *)
let rec sift_up t i ev =
  if i = 0 then place t 0 ev
  else
    let p = (i - 1) / 2 in
    let parent = t.heap.(p) in
    if before ev parent then begin
      place t i parent;
      sift_up t p ev
    end
    else place t i ev

let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i ev
  else
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before child ev then begin
      place t i child;
      sift_down t c ev
    end
    else place t i ev

let push t ~at run =
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  let ev = { time = Float.max at t.now; seq = t.seq; run; slot = 0 } in
  t.seq <- t.seq + 1;
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (if cap = 0 then 64 else 2 * cap) vacant in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ev;
  ev

(* The last event fills the hole at [i] and sifts whichever way
   restores the order. *)
let remove t i =
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- vacant;
  if i < t.size then
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last

(* The engine currently executing; set for the duration of [run]. The
   simulator is strictly single-domain, so a plain ref is safe. *)
let current : t option ref = ref None

let get () = match !current with Some t -> t | None -> raise Not_running

let arm ~at run = push (get ()) ~at run

let schedule ~at run = ignore (arm ~at run)

(* Only the running engine's own event is removed: the identity check
   keeps an event of another engine (say, a timer that outlived its
   simulation) from removing whatever this one holds in that slot. *)
let cancel ev =
  match !current with
  | Some t when ev.slot < t.size && t.heap.(ev.slot) == ev ->
      remove t ev.slot
  | Some _ | None -> ()

let now () = (get ()).now

let rng () = (get ()).root_rng

let events_processed t = t.processed

let live_fibers t = t.fibers

let sleep d =
  if Float.is_nan d then invalid_arg "Engine.sleep: NaN duration";
  perform (Sleep d)

let yield () = perform (Sleep 0.0)

let suspend register = perform (Suspend register)

let run_fiber t name f =
  t.fibers <- t.fibers + 1;
  match_with f ()
    {
      retc = (fun () -> t.fibers <- t.fibers - 1);
      exnc =
        (fun e ->
          t.fibers <- t.fibers - 1;
          if t.failure = None then t.failure <- Some (Fiber_error (name, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
              Some
                (fun (k : (a, _) continuation) ->
                  ignore
                    (push t ~at:(t.now +. Float.max 0.0 d) (fun () ->
                         continue k ())))
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let resumed = ref false in
                  let resume v =
                    if !resumed then
                      invalid_arg "Engine.suspend: resumed twice"
                    else begin
                      resumed := true;
                      ignore (push t ~at:t.now (fun () -> continue k v))
                    end
                  in
                  register resume)
          | _ -> None);
    }

let spawn ?(name = "fiber") f =
  let t = get () in
  ignore (push t ~at:t.now (fun () -> run_fiber t name f))

let run ?until t main =
  (match !current with
  | Some _ -> invalid_arg "Engine.run: an engine is already running"
  | None -> ());
  current := Some t;
  let finish () = current := None in
  (try
     ignore (push t ~at:t.now (fun () -> run_fiber t "main" main));
     let rec loop () =
       if t.size > 0 && t.failure = None then
         let ev = t.heap.(0) in
         match until with
         | Some limit when ev.time > limit -> ()
         | _ ->
             remove t 0;
             t.now <- ev.time;
             t.processed <- t.processed + 1;
             ev.run ();
             loop ()
     in
     loop ()
   with e ->
     finish ();
     raise e);
  finish ();
  match t.failure with
  | Some e ->
      t.failure <- None;
      raise e
  | None -> ()
