(** Near-user, eventually consistent versioned cache (§3.1, §3.2).

    Holds (value, version) pairs fed by LVI responses and by the local
    runtime after its own successful commits. Needs neither durability
    nor consistency: a miss is reported to the LVI request as version
    [-1], which forces validation to fail and the response to carry the
    fresh value — so a wiped cache repopulates itself through normal
    protocol traffic ("gradual bootstrap"). *)

type entry = { value : Dval.t; version : int }

type t

val create : ?access_latency:float -> unit -> t
(** An empty, unbounded cache. Default access latency 0.5 ms — an
    in-memory store colocated with the runtime (the paper uses DynamoDB
    here only to isolate protocol effects; §5.7 notes
    ScyllaDB/`in-memory` caches are the intended deployment). *)

val of_list : ?access_latency:float -> (string * Dval.t * int) list -> t
(** A cache holding (key, value, version) triples, sized for them up
    front and never smaller than an empty cache; per key, the newest
    version wins. [of_list []] is [create ()]. *)

val copy : t -> t
(** An independent cache with the same entries, access latency and
    counters: later updates, invalidations or wipes of either leave the
    other untouched. A table with at least as many entries as an empty
    cache has buckets is copied in one pass over its buckets, re-hashing
    no key; a smaller one is rebuilt from its entries. Every site's warm
    cache is a copy of one table built from the seed (see
    [Framework.create]). *)

val get : t -> string -> entry option
(** Blocking read; [None] on miss. *)

val get_many : t -> string list -> (string * entry option) list
(** Batch read: one access latency. *)

val version_of : t -> string -> int
(** Latency-free version probe; [-1] on miss, matching the protocol's
    miss marker. *)

val peek : t -> string -> entry option
(** Latency-free read that touches no hit/miss counter.
    Used to capture the (value, version) snapshot that a speculation
    executes against — see [Runtime.invoke]. *)

val update : t -> string -> Dval.t -> version:int -> unit
(** Install a (value, version) pair if newer than what is cached;
    a stale or duplicate install is ignored. Latency-free: updates ride
    on protocol responses. *)

val invalidate : t -> string -> version:int -> bool
(** [invalidate t key ~version] evicts [key] if the cached entry is
    strictly older than [version] (the version of a write committed at
    the primary), returning whether an entry was dropped. A hit on an
    entry at or past [version], or a miss, is a no-op — reordered or
    duplicated invalidations are harmless. Used by the invalidate-only
    propagation mode. *)

val wipe : t -> unit
(** Drop everything (failure injection / bootstrap experiments). *)

val size : t -> int

val hits : t -> int

val misses : t -> int

val snapshot : t -> (string * Dval.t * int) list
(** Dump (key, value, version) triples — the persistent-cache extension
    of §3.2 that avoids re-bootstrapping after a restart. *)

val restore : t -> (string * Dval.t * int) list -> unit
(** Load a snapshot; per-key, newer versions win. *)

module Leases : module type of Leases
(** The near-user read-lease cache — companion bookkeeping to the value
    cache, keyed the same way. See {!Leases}. *)
