(** Nagle-style coalescing of flushes on the virtual clock.

    Elements buffer until either the window elapses (counted from the
    round's first element) or the buffer reaches {!max_batch}; the flush
    callback then runs once over everything buffered. A submitter that
    waits ({!submit_all}) unblocks with the rest of its round when the
    flush returns. Elements arriving while a flush is in flight form the
    next round, so under load the batcher pipelines: one flush in
    flight, the next batch filling behind it.

    One module batches three streams: the LVI server's lock records
    (one Raft proposal per round, {!submit_all}), its cache-update
    propagation (one [cache_update] message per destination and round,
    {!add}), and each near-user endpoint's followups (one message per
    round, {!add}; an outgoing LVI request may carry the buffer instead,
    {!take}). *)

type 'a t

val max_batch : int
(** 64: a round that reaches this many elements flushes at once. *)

val create :
  window:float ->
  ?on_flush:(size:int -> queue_delay:float -> unit) ->
  ('a list -> unit) ->
  'a t
(** [create ~window flush] batches with the given window in virtual ms
    (0 coalesces only same-instant additions). [flush] may block (it
    typically submits to Raft); it runs in the caller of whichever
    addition filled the round, or in a timer fiber on window expiry.
    [on_flush] fires after each flush with the batch size and the
    queueing delay of the round's oldest element. *)

val add : 'a t -> 'a list -> unit
(** Add elements to the current round without waiting for its flush.
    Keeps list order within the round; no-op on []. *)

val submit_all : 'a t -> 'a list -> unit
(** {!add}, then block until the round's flush has completed. *)

val take : 'a t -> 'a list
(** Drain the current round, oldest first, without flushing it: the
    caller ships the elements itself. Cancels the window timer, wakes
    the round's submitters and counts no flush; [] when nothing is
    buffered. *)

val flushes : 'a t -> int
(** Completed flush rounds since creation. *)
