(** Shape-routed request placement on top of a {!Directory}.

    The router classifies each registered function once, from its
    {!Analyzer.Absint.summary}: if every read/write/multi-lock shape
    statically resolves to the same shard, the function is
    {e statically single-shard} and the whole LVI request is routed to
    that shard — the unchanged one-round-trip protocol, including the
    read-only fast path. Anything else (wildcard accesses, shapes the
    directory cannot pin, or shapes spanning shards) is {e cross-shard}
    and goes through the coordinator's prepare/commit round.

    Classifications are memoized per function: a directory's placement
    never changes. *)

type placement =
  | Single of int
      (** Every key this function can touch lives on one shard. *)
  | Cross
      (** Not statically pinned to one shard. The concrete key set of a
          given request may still land on a single shard — the server
          checks at prepare time — but the router cannot promise it. *)

type t

val create : Directory.t -> t

val directory : t -> Directory.t

val classify : t -> Analyzer.Absint.summary -> placement

val shards_of_keys : t -> string list -> int list
(** Distinct owning shards of a concrete key set, sorted ascending.
    [[]] iff the key set is empty. *)

val target_of_keys : t -> string list -> int
(** The shard a request with this concrete key set is sent to: the only
    owner when the set is single-shard, otherwise the {!anchor}
    (coordinator) of the owners. Empty key sets go to shard 0, and so
    does every set on a one-shard directory, whose keys are not
    hashed. *)

val anchor : int list -> int
(** Coordinator choice for a cross-shard owner set: the minimum shard
    id. Anchoring at the minimum makes the coordinator's local prepare
    the first step of the ascending fallback lock order (deadlock
    freedom) and gives deterministic re-execution a unique home. *)

type stats = { classified : int; single : int; cross : int }

val stats : t -> stats
(** Counts over distinct memoized classifications (not lookups). *)

val pp_placement : Format.formatter -> placement -> unit
