(** Imperative binary min-heap priority queue.

    Ordering is given by the comparison function supplied at creation.
    Elements that compare equal are popped in unspecified relative order;
    callers that need FIFO tie-breaking should embed a sequence number in
    the element and in the comparison.

    A popped element is not pinned by the backing array: the vacated
    slot refers to a live element, and emptying the queue (by {!pop} or
    {!clear}) releases the array. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element, or [None] if empty. *)

val peek : 'a t -> 'a option

val length : 'a t -> int

val is_empty : 'a t -> bool

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of the contents in unspecified order. *)
