(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Used for the Raft log and metric sample buffers. Indices are
    0-based; bounds errors raise [Invalid_argument]. Slots that
    {!truncate} and {!drop} vacate are overwritten with a live element,
    and a vector emptied by them lets go of its array, so removed
    elements (compacted Raft entries, say) can be collected at once. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val truncate : 'a t -> int -> unit
(** [truncate t n] drops elements so that [length t = n]. No-op if
    already shorter. *)

val drop : 'a t -> int -> unit
(** [drop t n] removes the first [n] elements (clamped). *)

val last : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val of_list : 'a list -> 'a t
