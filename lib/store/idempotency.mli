(** Idempotency-key table used by the replicated LVI server (§5.6).

    One key per function execution guarantees a function runs at most
    twice per user request: once near-user and at most once near-storage.
    The paper measures 3 ms to write and update a key in DynamoDB; that
    is this table's default access latency.

    A key registered with a [ttl] expires like a DynamoDB item with a
    TTL attribute: it is forgotten once the clock passes its
    registration time plus [ttl]. Keys registered without one stay. *)

type t

val create : ?access_latency:float -> unit -> t

val register : ?ttl:float -> t -> exec_id:string -> bool
(** Record that a near-storage execution is claiming [exec_id]. Returns
    [true] on first registration, [false] if already claimed (the caller
    must not execute). With [ttl], the key expires [ttl] virtual ms after
    this registration; after that the same id registers afresh. *)

val seen : t -> exec_id:string -> bool
(** Latency-free inspection. *)

val count : t -> int
(** Keys held. An expired key still counts (and is still {!seen})
    until the next {!register} prunes it. *)
