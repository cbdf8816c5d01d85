(** Versioned, linearizable key-value store — the primary copy of the
    data (DynamoDB in the paper's deployment).

    Every item carries a version number stored with the data (§3.1);
    Radical's storage library bumps it on each update. Operations advance
    virtual time by the store's access latency; batch operations pay it
    once (BatchGet/BatchWrite). Versions start at 0 for "never written";
    the first write produces version 1. *)

type t

type versioned = { value : Dval.t; version : int }

val create : ?access_latency:float -> unit -> t
(** Default access latency is 6.0 ms, chosen so that an in-region
    storage ping (1 ms network RTT + access) reproduces Table 2's 7 ms. *)

val access_latency : t -> float

val get : t -> string -> versioned option
(** Blocking read; [None] if the key was never written. *)

val get_many : t -> string list -> (string * versioned option) list
(** Batch read: one access latency for the whole batch. *)

val put : t -> string -> Dval.t -> int
(** Blocking write; returns the new version. *)

val put_many : t -> (string * Dval.t) list -> (string * int) list
(** Batch write: one access latency; returns new versions. *)

val version_of : t -> string -> int
(** Blocking version read; 0 if absent. *)

val versions_of : t -> string list -> (string * int) list
(** Batch version read: one access latency. *)

(* Latency-free accessors for test assertions and data seeding. *)

val peek : t -> string -> versioned option

val load : t -> (string * Dval.t) list -> unit
(** Seed data without advancing time; versions are set to 1 (or bumped if
    present). *)

val size : t -> int

val reads : t -> int
(** Cumulative count of read operations (batch counts once per key). *)

val writes : t -> int
