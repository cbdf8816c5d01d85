(** Conflict-aware admission queue for the LVI lock-and-persist section.

    Driven by the static conflict matrix of [Analyzer.Conflict]: function
    pairs whose verdict is [Disjoint] or [Read_share] admit concurrently
    with no key comparison at all; [May_conflict] pairs fall back to a
    dynamic overlap check on the requests' concrete read/write key sets.
    Requests that would actually collide wait in arrival order (FIFO —
    a newcomer also waits behind any conflicting queued request, so
    waiters cannot starve); everything else proceeds concurrently, which
    is what allows the server to fold the lock records of concurrent
    requests into one batched Raft proposal.

    In-flight requests are indexed by key: a newcomer is checked only
    against the requests that share one of its keys, so its cost does
    not grow with the number in flight. *)

type t

type ticket
(** A granted admission; pass it back to {!leave}. *)

val create :
  may_conflict:(string -> string -> bool) ->
  ?on_admit:(waited:float -> unit) ->
  unit ->
  t
(** [may_conflict a b] is the static verdict for a function pair —
    [false] skips the dynamic key check entirely. Must be symmetric and
    err on the side of [true] for unknown functions. [on_admit] fires on
    every admission with the time spent queued (0 for immediate). *)

val enter : t -> fn:string -> reads:string list -> writes:string list -> ticket
(** Block until no conflicting request is in flight or queued ahead,
    then join the in-flight set. Must run inside a fiber. *)

val leave : t -> ticket -> unit
(** Remove from the in-flight set and admit now-compatible waiters, in
    arrival order. *)

val inflight : t -> int
(** Requests admitted and not yet left. *)

val waiting : t -> int

val waited : t -> int
(** Requests that had to queue before admission. *)
