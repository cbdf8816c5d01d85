(** A hash table whose bindings can be given a deadline, after which
    they are forgotten.

    A binding made with {!replace} lives until it is removed or until a
    deadline set for it with {!expire} passes. Deadlines are kept in
    one FIFO, so {!prune} costs amortised O(1) per binding. The FIFO
    stays sorted because callers set deadlines as [now + lifetime] for
    one constant lifetime; a deadline earlier than the previous one is
    raised to it, which can only keep a binding longer.

    The FIFO is a chain of fixed-size chunks of parallel arrays
    (deadline, key, value), so a pending deadline costs three words
    and allocates nothing. A slot that {!prune} vacates keeps no
    reference to the key or value it held.

    A deadline is tied to the value it was set for: {!prune} removes a
    key only while the table still binds it to that same value ([==]).
    A key re-bound to a fresh value in the meantime survives the old
    deadline. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create n] with initial hash-table size [n]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind [k] to [v] with no deadline. *)

val remove : ('k, 'v) t -> 'k -> unit

val length : ('k, 'v) t -> int

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

val expire : ('k, 'v) t -> 'k -> 'v -> at:float -> unit
(** [expire t k v ~at]: forget [k] once the clock passes [at], if [k] is
    then still bound to [v]. *)

val prune : ('k, 'v) t -> now:float -> unit
(** Forget every binding whose deadline is strictly before [now]. *)
