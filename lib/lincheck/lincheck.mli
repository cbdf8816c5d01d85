(** Linearizability checking for transactional key-value histories.

    Radical claims Linearizability of whole function executions (§3.6):
    each handler atomically reads and writes a set of keys. The tests
    record one {!op} per client-visible execution — the values its reads
    observed and the writes it exposed — with real-time invocation and
    response instants, then ask [check] whether some legal total order
    explains the history.

    The checker is a Wing–Herlihy style exhaustive search: repeatedly
    pick an operation that no other *pending* operation really-precedes
    (finish < start), apply it if every read matches the simulated store
    state, and backtrack on failure. Exponential in the worst case, ample
    for test-sized histories (hundreds of operations with bounded
    concurrency). *)

type op = {
  op_id : string;
  start : float; (** Invocation instant. *)
  finish : float; (** Response instant; must be [>= start]. *)
  reads : (string * Dval.t) list; (** Key and the value observed. *)
  writes : (string * Dval.t) list;
}

type verdict = Linearizable of string list | Not_linearizable | Inconclusive

val decide :
  ?init:(string * Dval.t) list -> ?budget:int -> op list -> verdict
(** Budgeted check: the search gives up with [Inconclusive] after
    visiting [budget] nodes (default unbounded). Long histories of
    highly contended concurrent operations can otherwise take the
    exponential worst case — the chaos campaign treats [Inconclusive]
    as a pass, never as a violation. [Linearizable] carries the op ids
    in a valid linearization order. *)

val check : ?init:(string * Dval.t) list -> op list -> bool
(** [check history] is true iff the history is linearizable starting
    from [init] (absent keys read as [Dval.Unit]). *)

val witness : ?init:(string * Dval.t) list -> op list -> string list option
(** Like [check] but returns the op ids in a valid linearization
    order. *)
