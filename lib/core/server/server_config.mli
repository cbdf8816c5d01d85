(** Configuration layer of the LVI server engine: preset records and
    knobs only. The public {!Server} interface includes this module;
    the sibling server_* modules read it via {!Server_state.t}. *)

type mode = Singleton | Replicated of { az_rtt : float }

type protocol_mutation = Skip_reexecution
    (** Deliberate protocol sabotage for chaos testing
        ({!Server.inject_mutation}): [Skip_reexecution] makes the server
        forget an orphaned intent instead of deterministically
        re-executing it — the speculated write is lost, the intent stays
        pending and its locks stay held. Used to prove the chaos
        invariant oracle catches real protocol bugs; never set in
        production paths. *)

type batching = {
  group_commit : bool;
      (** Replicated mode: the Raft leader folds proposals queued while
          an append is in flight into one log entry. *)
  request_flush : bool;
      (** Persist all lock records of one request as a single
          [submit_batch] proposal instead of one submit per record. *)
  persist_window : float;
      (** > 0: a Nagle flusher additionally coalesces the lock records
          of *concurrent* requests arriving within this many virtual ms
          into one proposal. 0 disables the flusher. *)
  admission : bool;
      (** Conflict-aware admission before the lock-and-persist section:
          statically non-conflicting requests ([Analyzer.Conflict]
          Disjoint/Read_share, or May_conflict with disjoint concrete
          key sets) are admitted concurrently; actual conflicts wait in
          arrival order. *)
  append_cost : float;
      (** Replicated mode: modeled durable-append cost (virtual ms) per
          Raft log {e entry} on the lock cluster — the serialized fsync
          group commit amortizes across coalesced commands. 0 (default,
          also in {!full_batching}) keeps the seed timing where log
          appends are free; the batching load-sweep benchmark turns it
          on so the batched-vs-unbatched comparison has a real resource
          to contend for. *)
}

val no_batching : batching
(** All knobs off — the unbatched seed behaviour. *)

val full_batching : batching
(** Every knob on, 2 ms persist window. *)

type propagation = {
  enabled : bool;
      (** Publish committed writes to subscribed near-user caches. Off:
          bit-identical seed behaviour — no batchers, no messages, no
          timer activity. *)
  prop_window : float;
      (** Nagle window (virtual ms) coalescing update records per
          destination into one [cache_update] message; 0 coalesces only
          same-instant commits. *)
  invalidate_only : bool;
      (** Ship invalidations instead of values: the receiver evicts
          each key it caches at an older version, and the next local
          request repairs it through normal protocol traffic. Trades
          propagation bandwidth for one extra mismatch per evicted
          key. *)
}

val no_propagation : propagation
(** Disabled — the seed behaviour. *)

val default_propagation : propagation
(** Enabled, 2 ms window, value installs (not invalidations). *)

type leases = {
  enabled : bool;
      (** Grant per-key read leases to registered near-user sites on
          validated-read reply paths and propagation flushes, letting
          them serve statically read-only functions locally with zero
          round trips. Off: bit-identical seed behaviour — no grants,
          no revocation channels, no table activity. *)
  duration : float;
      (** Lease term (virtual ms). A grant on key [k] to site [S] is
          the server's promise that no write to [k] validates before
          the lease is revoked-and-acked or [duration + lease_skew] has
          passed since the grant. *)
  revoke : bool;
      (** [true]: the write path revokes leases from holding sites and
          waits for acknowledgements, falling back to the expiry wait
          only for sites that do not answer. [false]: always wait out
          the expiry — no revocation traffic, slower writes to leased
          keys. *)
  revoke_timeout : float;
      (** Per-site revocation RPC timeout before the expiry-wait
          fallback; must cover a near-storage → site round trip. *)
}

val no_leases : leases
(** Disabled — the seed behaviour. *)

val default_leases : leases
(** Enabled: 2 s leases, revocation on with a 400 ms RPC timeout. The
    long term maximizes read locality; revocation keeps writes to
    leased keys at ~one site round trip regardless, so only the
    no-revocation fallback ever feels the full term. *)

val lease_skew : float
(** ε = 5 ms, the clock-skew bound: the extra margin the write path
    waits past a lease's expiry before proceeding without an
    acknowledged revocation. The simulation's clock is global, so this
    models the safety margin a real deployment needs. *)

type config = {
  loc : Net.Location.t;
  intent_timeout : float;
      (** Ceiling (virtual ms) before an unanswered write intent
          triggers deterministic re-execution. Each function's timer is
          4× its observed followup delay (EWMA), bounded by
          [200, intent_timeout] — §3.4's "timer longer than the expected
          execution latency of the function". Until a function has
          history, the ceiling applies. *)
  mode : mode;
  batching : batching;
  propagation : propagation;
  leases : leases;
}

val default_config : config
(** VA, 1500 ms ceiling, singleton, no batching, no propagation, no
    leases. *)
