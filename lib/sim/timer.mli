(** Cancellable one-shot timers.

    The callback runs as a fresh fiber (it may block) when the virtual
    clock reaches the deadline, unless the timer was cancelled first. Used
    for write-intent expiry and RPC timeouts.

    {!cancel} takes the timer's event out of the engine's queue
    ({!Engine.cancel}), so a cancelled timer costs no event and holds
    nothing its callback captured — an RPC's reply, say. *)

type t

val after : float -> (unit -> unit) -> t
(** [after d f] arms a timer that fires in virtual duration [d]. *)

val cancel : t -> unit
(** Idempotent; a no-op after the timer fired. *)

val fired : t -> bool

val cancelled : t -> bool
