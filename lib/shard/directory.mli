(** Shard directory: a queryable map from primary keys to LVI shard
    ids.

    The primary key space is partitioned across [shards] independent
    LVI servers, each owning the locks, intents, idempotency records
    and (optionally) the Raft lock cluster for its keys. The directory
    answers two questions:

    - {!shard_of_key}: which shard owns this concrete key — total, used
      at request time for the actual read/write set.
    - {!shard_of_shape}: which shard owns {e every} key a static
      {!Analyzer.Absint.shape} can produce, if that is decidable —
      the static routing oracle behind the single-shard fast path. *)

type strategy =
  | Hash of { shards : int }
      (** [shard_of_key k = fnv64 k mod shards]. Spreads uniformly but
          is opaque to shapes: only fully-literal (exact) shapes
          resolve statically. *)
  | Prefix of { shards : int; rules : (string * int) list; default : int }
      (** Longest-matching-prefix rules, e.g.
          [[("bal:", 0); ("wall:", 1)]]; keys matching no rule go to
          [default]. Shapes resolve statically whenever their leading
          literal pins the longest match — the placement a deployment
          chooses when the analyzer should prove disjointness. *)

type t

val create : strategy -> t
(** Raises [Invalid_argument] if [shards < 1], a rule target or
    [default] is out of range, or a prefix rule is duplicated. *)

val hash : shards:int -> t

val prefix : ?default:int -> shards:int -> (string * int) list -> t
(** [default] defaults to shard 0. *)

val strategy : t -> strategy

val shards : t -> int

val shard_of_key : t -> string -> int
(** Total: every key has exactly one owner. *)

val shard_of_shape : t -> Analyzer.Absint.shape -> int option
(** [Some s] iff every concrete key the shape can evaluate to is owned
    by shard [s] — a sound static proof, never a guess:

    - one shard: always [Some 0];
    - exact (hole-free) shapes resolve through {!shard_of_key};
    - [Hash]: shapes with holes return [None] (hashing is opaque);
    - [Prefix]: the shape's leading literal [l] fixes the candidate
      rules. The longest rule prefixing [l] (or [default]) is the
      baseline; if every strictly-longer rule extending [l] agrees with
      the baseline's shard, the match is pinned regardless of what the
      holes produce. Otherwise [None].

    [None] means "not statically decidable", and the router must treat
    the access as potentially cross-shard. *)

val pp : Format.formatter -> t -> unit
