(** Wire types of the LVI protocol (§3.2, Figure 3).

    One {!lvi_request} per function invocation carries the predicted
    read/write set and the cache's version for every read. The response
    either blesses the speculation ([Validated]) or carries the result
    of the near-storage backup execution plus fresh cache material
    ([Mismatch]). The {!followup} ships the speculative writes after the
    client reply — either on its own (possibly coalesced with other
    followups to the same destination) or piggybacked on the next
    outgoing LVI request. *)

type exec_id = string

type followup = {
  fu_exec_id : exec_id;
  fu_from : Net.Location.t;
      (** The near-user site whose speculation produced these writes.
          The server excludes it when it propagates the committed
          updates to subscribed caches — that site already installed
          them at [Validated] time. *)
  fu_updates : (string * Dval.t) list;
}

type lvi_request = {
  exec_id : exec_id;
  fn_name : string;
  args : Dval.t list;
      (** Shipped with the request so the near-storage location can run
          the backup copy of [f] on the same inputs (Figure 2). *)
  reads : (string * int) list;
      (** Read-set keys with the near-user cache's version; [-1] marks a
          cache miss, which guarantees validation failure (§3.2). *)
  writes : string list; (** Write-set keys. *)
  ro_hint : bool;
      (** The client's static analysis proved the function read-only (no
          writes, no external calls), making the request eligible for the
          server's validate-only fast path. A hint, not a capability: the
          server re-derives eligibility from its own registry. *)
  from_loc : Net.Location.t;
  piggyback : followup list;
      (** Followups of earlier invocations from this site still in its
          coalescing buffer when the request departed; the server
          applies them before processing the request, so a delayed
          followup can never stall a later request from the same site
          behind the locks it would release. Empty unless followup
          coalescing is on. *)
  acks : exec_id list;
      (** Execution ids of this site's earlier LVI and direct-exec calls
          to the same server that have returned, with a reply or a
          timeout, since the site's last request to it. The client no
          longer waits on those replies, so the server replaces each
          stored response it has already sent with a shared tombstone
          (DESIGN.md §16.2); the entry's key and deadline stay, so a
          late duplicate is still recognised and never re-runs. *)
}

type update = { up_key : string; up_value : Dval.t; up_version : int }

type lease_grant = {
  lg_key : string;
  lg_version : int;
      (** Primary version of the key at grant time — the version the
          lease certifies. A local read under the lease is current iff
          the near-user cache still holds exactly this version. *)
  lg_issued : float;
      (** Grant instant at the lease authority. The receiving site
          fences grants issued at or before its last acknowledged
          revocation of the key: such a grant was in flight while a
          writer settled the key and must not revive the lease. *)
  lg_until : float;
      (** Absolute expiry on the global virtual clock. The authority
          will not let a write to the key validate before this instant
          plus the configured clock-skew bound ε unless the lease is
          revoked and acknowledged first ([Server.leases]). *)
}
(** Per-key read lease, piggybacked on [Validated] replies and on
    {!cache_update} records — granting costs no extra round trip. *)

type lease_revoke = { lr_keys : string list }
(** Revocation from a lease authority to a holding site, fired on the
    write path before a write to the keys may validate; the RPC reply
    is the acknowledgement the writer waits for. Idempotent at the
    receiver: drop the grants, fence the keys, reply. *)

type cache_update = {
  cu_invalidate : bool;
      (** [true]: the receiver evicts each key (if it caches an older
          version) instead of installing the value — the bandwidth-lean
          invalidation mode; the next local request misses and repairs
          through normal protocol traffic. [false]: install. *)
  cu_updates : (update * float) list;
      (** Committed (key, value, version) records paired with the
          virtual instant the write was applied to primary storage; the
          receiver derives its freshness lag from the stamp. Installs
          are version-guarded at the receiving cache, so lost,
          duplicated or reordered batches are harmless. *)
  cu_leases : lease_grant list;
      (** Read leases granted to the receiving site alongside the
          freshly propagated values (empty unless [Server.leases] is on
          and update-mode propagation is). *)
}
(** Asynchronous cache-update propagation from the LVI server to the
    subscribed near-user caches — the cross-site freshness channel.
    Published after a followup / deterministic re-execution / mismatch
    repair commits writes to primary storage, coalesced per destination
    in a Nagle window ([Server.propagation]). *)

type exec_result = {
  value : (Dval.t, string) result;
  observed : (string * Dval.t) list;
      (** Reads the execution performed, with the values it saw —
          recorded for linearizability checking. *)
  written : (string * Dval.t) list;
}

val failed : string -> exec_result
(** An execution that did not run: the error [msg], nothing observed,
    nothing written. *)

type lvi_response =
  | Validated of {
      write_versions : (string * int) list;
      leases : lease_grant list;
    }
      (** Validation succeeded: every cached version matched primary.
          [write_versions] are the primary's current versions of the
          write-set keys, letting the runtime install its own writes in
          the cache with the exact post-commit versions. [leases] are
          read leases granted on the reply path of a validated read
          (empty unless [Server.leases] is on). *)
  | Mismatch of {
      backup : exec_result;
          (** The function ran in the near-storage location (6b). *)
      updates : update list;
          (** Fresh values and versions for the keys found stale plus
          the keys the backup wrote — the near-user location installs
          these in its cache (8b). *)
    }

type exec_request = {
  dx_exec_id : exec_id;
  dx_fn_name : string;
  dx_args : Dval.t list;
  dx_acks : exec_id list;  (** As {!lvi_request.acks}. *)
}
(** Direct near-storage execution, used when the analyzer failed and for
    the primary-datacenter baseline. *)

(** {1 Cross-shard atomic commit}

    Sharded LVI deployments partition the key space across independent
    servers. A request whose key set spans several shards is driven by
    a coordinator — the minimum touched shard — which asks every other
    touched shard to prepare its slice, commits iff all validated, and
    concludes every prepare round with exactly one {!shard_decision}
    broadcast, retried until acknowledged. *)

type shard_prepare = {
  sp_exec_id : exec_id;
  sp_round : int;
      (** Strictly increasing per exec_id at the coordinator. Round 1 is
          the parallel all-or-nothing try; round 2+ the sequential
          blocking fallback or a backup re-lock round. Participants use
          it to refuse stale prepares and to let a newer round supersede
          an orphaned older one after in-flight reordering. *)
  sp_coord : int;  (** Coordinator shard id — anchor of re-execution. *)
  sp_blocking : bool;
      (** [false]: all-or-nothing [Locks.try_acquire]; a busy slice
          means "vote Busy, hold nothing". [true]: blocking acquire —
          only sent sequentially in ascending shard order, preserving
          the global (shard, key) lock order that precludes deadlock. *)
  sp_intent : bool;
      (** [true] for atomic-commit rounds: install a write intent and
          log the exec for the cross-shard atomicity oracle. [false]
          for backup re-lock rounds, which only need the locks. *)
  sp_reads : (string * int) list;
      (** This shard's read slice, version-validated on prepare. *)
  sp_writes : string list;  (** This shard's write slice. *)
}

type shard_vote =
  | Shard_prepared of { sv_write_versions : (string * int) list }
      (** Slice locked (and intent installed when requested); for write
          keys, the authoritative current versions used to build the
          merged [Validated] reply. *)
  | Shard_stale of { sv_stale : string list }
      (** Slice locked but validation failed on these keys. Locks are
          {e held} — exactly like the single-server mismatch path — so
          the coordinator can run backup execution under full coverage
          before broadcasting the abort. *)
  | Shard_busy
      (** Non-blocking try failed, or the prepare was stale/superseded:
          nothing is held at this shard for this round. *)

type shard_decision = {
  sd_exec_id : exec_id;
  sd_round : int;
      (** Concludes every round <= [sd_round]: a participant releases
          the slice it holds for such rounds and refuses late prepares
          for them, but leaves a newer round's locks untouched. *)
  sd_commit : bool;
  sd_from : Net.Location.t option;
      (** Origin site of the committed write set, excluded from the
          receiving shard's cache-update propagation (it installed its
          own writes at [Validated] time). *)
  sd_updates : update list;
      (** Committed (or mismatch-repair) records owned by the receiving
          shard: each shard publishes its own keys to its subscribers. *)
}

val pp_vote : Format.formatter -> shard_vote -> unit
