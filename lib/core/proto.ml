type exec_id = string

type followup = {
  fu_exec_id : exec_id;
  fu_from : Net.Location.t;
  fu_updates : (string * Dval.t) list;
}

type lvi_request = {
  exec_id : exec_id;
  fn_name : string;
  args : Dval.t list;
  reads : (string * int) list;
  writes : string list;
  ro_hint : bool;
      (* Client-side claim that static analysis proved the function
         read-only (no writes, no external calls). The server treats it
         as a hint only: it re-derives eligibility from its own registry
         before taking the validate-only fast path. *)
  from_loc : Net.Location.t;
  piggyback : followup list;
      (* Followups of *earlier* invocations from this site, still
         sitting in its coalescing buffer when this request departed:
         the request carries them for free, and the server applies them
         before processing the request itself. *)
  acks : exec_id list;
      (* Execution ids of earlier calls from this site to this server
         that have returned (reply or timeout): the server may drop their
         stored responses. *)
}

type update = { up_key : string; up_value : Dval.t; up_version : int }

(* Read-lease grant, piggybacked on lvi_response and cache_update
   messages — granting costs no extra round trip. [lg_version] is the
   primary version of the key the lease certifies: a local read under
   the lease is current iff the cache still holds exactly that version.
   [lg_issued] is the grant instant at the lease authority, used by the
   receiving site to fence grants that were in flight while a writer
   revoked the key. [lg_until] is the absolute expiry on the global
   virtual clock. *)
type lease_grant = {
  lg_key : string;
  lg_version : int;
  lg_issued : float;
  lg_until : float;
}

(* Revocation request from a lease authority (the LVI server owning the
   keys) to a holding site; the RPC reply is the ack the write path
   waits for. Idempotent at the receiver: drop the grants, fence the
   keys, reply. *)
type lease_revoke = { lr_keys : string list }

type cache_update = {
  cu_invalidate : bool;
  cu_updates : (update * float) list;
  cu_leases : lease_grant list;
}

type exec_result = {
  value : (Dval.t, string) result;
  observed : (string * Dval.t) list;
  written : (string * Dval.t) list;
}

let failed msg = { value = Error msg; observed = []; written = [] }

type lvi_response =
  | Validated of {
      write_versions : (string * int) list;
      leases : lease_grant list;
          (* Read leases granted on this validated reply (empty unless
             the server's lease config is on and the request validated
             read-only). *)
    }
  | Mismatch of { backup : exec_result; updates : update list }

type exec_request = {
  dx_exec_id : exec_id;
  dx_fn_name : string;
  dx_args : Dval.t list;
  dx_acks : exec_id list; (* as [lvi_request.acks] *)
}

(* Cross-shard atomic commit (sharded LVI service). The coordinator
   shard — the minimum shard id the request touches — asks every other
   touched shard to prepare its slice of the read/write set; each
   participant locks the slice, validates its read versions and (for
   write slices) installs an intent. The coordinator commits iff every
   shard validated, and concludes every prepare round with exactly one
   [shard_decision] broadcast, retried until acknowledged. *)

type shard_prepare = {
  sp_exec_id : exec_id;
  sp_round : int;
      (* Strictly increasing per exec_id at the coordinator. A round is
         either the parallel try round (1), the ordered blocking
         fallback (2), or a backup re-lock round (3+). Participants use
         it to refuse stale prepares and to let a newer round supersede
         an orphaned older one after in-flight reordering. *)
  sp_coord : int; (* coordinator shard id, anchor of re-execution *)
  sp_blocking : bool;
      (* false: all-or-nothing [Locks.try_acquire]; a busy slice means
         "vote Busy, hold nothing". true: blocking acquire — only sent
         sequentially in ascending shard order, preserving the global
         (shard, key) lock order that precludes deadlock. *)
  sp_intent : bool;
      (* true for the atomic-commit rounds: install a write intent and
         log the exec for the cross-shard atomicity oracle. false for
         backup re-lock rounds, which only need the locks. *)
  sp_reads : (string * int) list; (* this shard's read slice, version-validated *)
  sp_writes : string list; (* this shard's write slice *)
}

type shard_vote =
  | Shard_prepared of { sv_write_versions : (string * int) list }
      (* Slice locked (and intent installed when requested); for write
         keys, the authoritative current versions used to build the
         merged [Validated] reply. *)
  | Shard_stale of { sv_stale : string list }
      (* Slice locked but validation failed on these keys. Locks are
         HELD — exactly like the single-server mismatch path — so the
         coordinator can run backup execution under full coverage
         before broadcasting an abort. *)
  | Shard_busy
      (* Non-blocking try failed (or the prepare was stale/superseded):
         nothing is held at this shard for this round. *)

type shard_decision = {
  sd_exec_id : exec_id;
  sd_round : int;
      (* Concludes every round <= sd_round: a participant releases the
         slice it holds for such rounds and refuses late prepares for
         them, but leaves a newer round's locks untouched. *)
  sd_commit : bool;
  sd_from : Net.Location.t option;
      (* Origin site of the committed write set, excluded from this
         shard's cache-update propagation (it installed its own
         writes at Validated time). *)
  sd_updates : update list;
      (* Committed (or mismatch-repair) records owned by the receiving
         shard: each shard publishes its own keys to its subscribers. *)
}

let pp_vote fmt = function
  | Shard_prepared { sv_write_versions } ->
      Format.fprintf fmt "Prepared(%d write versions)"
        (List.length sv_write_versions)
  | Shard_stale { sv_stale } ->
      Format.fprintf fmt "Stale(%s)" (String.concat "," sv_stale)
  | Shard_busy -> Format.fprintf fmt "Busy"

