(** The near-user runtime (§3.1, Figure 2).

    For each invocation it runs [f^rw] to predict the read/write set,
    speculatively executes the function against the local cache while
    the single LVI request is in flight, and reconciles: a validated
    speculation is released to the client and its writes follow up to
    the near-storage location *after* the reply; a mismatch discards the
    speculation and returns the backup result, refreshing the cache.

    A recorder hook captures one {!Lincheck.op} per invocation so tests
    can verify Linearizability of whole histories. *)

type config = {
  loc : Net.Location.t;
  overlap : bool;
      (** Overlap speculation with the LVI request (the paper's design).
          [false] serializes them — the speculation-ablation bench. *)
  ro_fast : bool;
      (** Set the read-only hint on LVI requests for functions the
          static analysis proved write-free, letting the server answer
          on its validate-only fast path (no locks, no intent, no
          idempotency record). [false] is the ablation: every request
          takes the full locked path. *)
  fu_window : float;
      (** > 0: Nagle-style followup coalescing — followups buffer for up
          to this many virtual ms and leave as one message. Must stay
          well under the server's 200 ms intent-timer floor, since a
          buffered followup delays the release of its server-side locks
          by up to one window. 0 posts each followup immediately. *)
  fu_piggyback : bool;
      (** Drain the followup buffer into the next outgoing LVI request
          ([Proto.lvi_request.piggyback]) instead of waiting for the
          window timer — the request carries them for free and the
          server applies them first. *)
}

val invoke_overhead : float
(** Lambda instantiation + WASM blob load per invocation (§5.5 items
    1–2): the paper measures ~12 ms. The baselines pay it too. *)

val frw_overhead : float
(** Base CPU cost of running [f^rw] (§5.5 item 3), 1 ms; dependent
    reads additionally pay cache latency. *)

val rpc_timeout : float
(** Timeout (virtual ms) for the LVI and direct-execution calls; on
    expiry the invocation returns an [Error] outcome instead of blocking
    its fiber forever on a lost message. Deliberately generous (60 s):
    the runtime never re-sends, because the server may have installed
    the write intent — its timer re-executes the write
    deterministically. *)

type path =
  | Speculative (** Validation succeeded; the speculative result was used. *)
  | Backup (** Validation failed; the near-storage result was used. *)
  | Fallback (** No [f^rw]; ran near storage unconditionally. *)
  | Local
      (** Statically read-only and every read key was covered by a valid
          read lease certifying the cached version: served entirely at
          this site, zero LVI round trips ([Server.leases]). *)

val path_label : path -> string
(** ["Speculative"], ["Backup"], ["Fallback"] or ["Local"] — the path
    key used in {!Metrics.Tracer} phase histograms and JSON
    breakdowns. *)

type outcome = {
  value : (Dval.t, string) result;
  latency : float;
  path : path;
}

type t

type stats = {
  invocations : int;
  speculative : int;
  backup : int;
  fallback : int;
  skipped_speculations : int; (** Cache misses suppressed speculation. *)
  ro_hints : int;
      (** LVI requests sent with the read-only fast-path hint set. *)
  fu_batches : int;
      (** Coalesced followup messages posted, each carrying ≥ 1
          followups (0 with the window and piggybacking both off). *)
  fu_piggybacked : int;
      (** Followups that rode an outgoing LVI request. *)
  rpc_timeouts : int;
      (** Calls that hit [rpc_timeout] and returned an error outcome. *)
  prop_batches : int;
      (** [cache_update] messages received from the LVI server's
          propagation channel (0 with propagation off). *)
  prop_records : int; (** Update records carried by those messages. *)
  prop_installed : int;
      (** Records that changed the cache — installed a newer version,
          or evicted a stale entry in invalidate mode. The rest lost
          the version guard (the cache was already as fresh). *)
  lease_local : int;
      (** Invocations served on the lease-local path: statically
          read-only, zero LVI round trips (0 with leases off). *)
  lease_installed : int;
      (** Lease grants accepted off LVI replies and cache updates. *)
  lease_refused : int;
      (** Grants refused — fenced by a later revocation (the grant was
          in flight while a writer settled the key) or superseded by a
          longer-lived grant already held. *)
  lease_revoked : int;
      (** Held grants dropped by server revocations. *)
}

val create :
  ?extsvc:Extsvc.t ->
  ?tracer:Metrics.Tracer.t ->
  net:Net.Transport.t ->
  registry:Registry.t ->
  cache:Cache.t ->
  router:Shard.Router.t ->
  servers:Server.t list ->
  config ->
  t
(** [extsvc] must be the same registry as the server's so speculation
    and re-execution share idempotency records (§3.5).

    [servers] holds one server per shard of the [router]'s directory
    (raises [Invalid_argument] if a shard has none), and the runtime
    keeps one endpoint (LVI / followup / direct-exec services plus its
    own followup coalescing buffer) per shard. Each invocation's
    predicted key set picks the endpoint through the router — the
    owning shard when the set is single-shard, the coordinator anchor
    (minimum touched shard) when it spans several; direct executions
    route by the function's static key-shape classification. Followup
    buffers are per-shard so a followup (or piggyback) always reaches
    the shard holding its intent. With one shard every request goes to
    the one server.

    With a [tracer] (default noop), every {!invoke} builds a span tree
    rooted at the function name with phases [invoke_overhead],
    [frw_predict], [speculate], [lvi_rtt], and one of [followup_post]
    (Speculative), [cache_repair] (Backup) or [direct_exec] (Fallback);
    the tree is registered under the invocation's exec-id while in
    flight so the LVI server can attach its own phases, then folded
    into per-[(fn, phase, path)] histograms on completion. *)

val invoke : t -> string -> Dval.t list -> outcome
(** Blocking; must run inside a fiber. Raises [Invalid_argument] for an
    unregistered function name, and for a validated speculation that
    wrote a key outside its predicted write set — the server cannot
    have returned an authoritative version for it, which only happens
    with an unsound manual [f^rw]. *)

val cache_update_service : t -> (Proto.cache_update, unit) Net.Transport.service
(** The runtime's receiver for the server's asynchronous cache-update
    propagation ({!Server.subscribe}). Installs each record into the
    local cache (or evicts, in invalidate mode) under the version
    guard, so lost, duplicated or reordered batches are harmless, and
    records the per-site freshness lag under ["prop_lag:<loc>"]. *)

val lease_revoke_service : t -> (Proto.lease_revoke, unit) Net.Transport.service
(** The runtime's receiver for server-side lease revocations; register
    it with {!Server.register_lease_site} to make this site eligible
    for read-lease grants. The handler drops the named grants and
    fences their keys before the acknowledgement travels back — the ack
    is the server's licence to let the blocked write validate. *)

val set_recorder : t -> (Lincheck.op -> unit) -> unit

val stats : t -> stats

val pending_acks : t -> int
(** Returned calls, across this site's server endpoints, not yet
    acknowledged to their server. Each LVI or direct-exec request
    carries its endpoint's whole buffer ([Proto.lvi_request.acks]), so
    this counts only the calls returned since the last request to each
    endpoint. *)

val location : t -> Net.Location.t

val cache : t -> Cache.t
