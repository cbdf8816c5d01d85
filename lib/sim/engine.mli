(** Deterministic discrete-event simulation engine.

    The engine multiplexes lightweight cooperative fibers over a virtual
    clock using OCaml effect handlers. A fiber runs until it blocks —
    [sleep]ing, or [suspend]ing on an external wakeup (ivars,
    RPC replies) — at which point the engine pops the next pending event
    in (time, sequence) order. Same-time events run in FIFO spawn/wakeup
    order, so runs are fully deterministic given the seed.

    Pending events sit in two queues popped together in (time, sequence)
    order. Events due at the current instant (spawns, wakeups, zero
    sleeps) wait in a FIFO ring, and the clock does not move while one
    is pending. Future events, and every event {!arm} returns, wait in
    an indexed binary min-heap whose keys (unboxed times and sequence
    numbers) and slot ids sit in parallel arrays, while each callback
    stays put in a slot table. {!cancel} finds an event by its slot and
    takes it out in O(log n): a cancelled event is gone at once and is
    never popped or counted. A sleep allocates no event record and no
    boxed time.

    All operations other than [create] and [run] must be called from
    within a running engine (inside a fiber, or from a callback invoked by
    the event loop); they raise [Not_running] otherwise. *)

type t

exception Not_running

exception Fiber_error of string * exn
(** Raised out of [run] when a fiber raised; carries the fiber name. *)

val create : ?seed:int -> unit -> t

val run : ?until:float -> t -> (unit -> unit) -> unit
(** [run t main] spawns [main] as the first fiber and processes events to
    quiescence (or until the virtual clock would pass [until]). Re-raises
    the first fiber failure as [Fiber_error]. Engines are single-shot per
    call but may be [run] repeatedly; virtual time persists across calls. *)

val now : unit -> float
(** Current virtual time (milliseconds by convention). *)

val sleep : float -> unit
(** Block the calling fiber for a virtual duration (clamped at 0).
    @raise Invalid_argument on NaN. *)

val yield : unit -> unit
(** Reschedule the calling fiber behind already-pending same-time events. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a new fiber at the current time. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling fiber and calls [register resume].
    Invoking [resume v] (at most once) schedules the fiber to continue with
    [v] at the then-current virtual time. *)

val schedule : at:float -> (unit -> unit) -> unit
(** Run a callback (not a fiber: it must not block) at an absolute time
    (a past time means now).
    @raise Invalid_argument when [at] is NaN. *)

type event
(** A pending callback that can still be cancelled. *)

val arm : at:float -> (unit -> unit) -> event
(** {!schedule}, returning the event for {!cancel}. *)

val cancel : event -> unit
(** Remove the event from the running engine's queue, so it never runs.
    A no-op once it has run or been cancelled, and for an event of an
    engine that is not running, even after its slot has been reused: a
    slot's generation must match the event's. *)

val rng : unit -> Rng.t
(** The engine's root generator. Subsystems should [Rng.split] it. *)

val events_processed : t -> int
(** Events that ran; a cancelled event never counts. *)

val live_fibers : t -> int
(** Fibers spawned but not yet finished (includes blocked fibers). *)
