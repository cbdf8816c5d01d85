(** Cancellable one-shot timers.

    The callback runs as a fresh fiber (it may block) when the virtual
    clock reaches the deadline, unless the timer was cancelled first. Used
    for write-intent expiry and RPC timeouts.

    A cancelled timer's event stays in the engine's queue until its
    deadline, but it no longer holds the callback: {!cancel} (and
    firing) release it, so whatever the callback captured — an RPC's
    reply, say — can be collected at once. *)

type t

val after : float -> (unit -> unit) -> t
(** [after d f] arms a timer that fires in virtual duration [d]. *)

val cancel : t -> unit
(** Idempotent; a no-op after the timer fired. *)

val fired : t -> bool

val cancelled : t -> bool
