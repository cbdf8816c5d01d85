(** Raft consensus (Ongaro & Ousterhout, ATC '14) over the simulated
    network.

    This is the substrate behind the replicated LVI server of §5.6: the
    paper stores locks in a three-node etcd cluster spread across
    availability zones, so every lock acquisition travels through Raft.
    The implementation covers leader election with randomized timeouts,
    log replication with the AppendEntries consistency check and conflict
    truncation, commit-rule application (current-term entries only),
    crash/restart with persistent term/vote/log and in-memory state
    machines rebuilt by replay, and log compaction into state-machine
    snapshots with snapshot installation for followers that lag behind a
    compacted prefix (the replicated LVI server's lock cluster compacts
    every 256 entries). Membership change is out of scope — the lock
    service never needs it in the evaluation.

    The replicated state machine is supplied as a functor argument. *)

module type State_machine = sig
  type t

  type cmd

  type output

  val apply : t -> cmd -> output
  (** Must be deterministic; called exactly once per committed entry per
      (live) replica, in log order. *)

  type snapshot

  val snapshot : t -> snapshot
  (** Serialize the current state for log compaction. *)

  val restore : snapshot -> t
end

module Make (Sm : State_machine) : sig
  type cluster

  type node_id = int

  val create :
    net:Net.Transport.t ->
    locs:Net.Location.t list ->
    sm:(unit -> Sm.t) ->
    ?election_timeout:float * float ->
    ?heartbeat_interval:float ->
    ?rpc_timeout:float ->
    ?compaction_threshold:int ->
    ?group_commit:bool ->
    ?append_latency:float ->
    ?on_batch:(size:int -> queue_delay:float -> unit) ->
    ?on_apply:(node_id -> int -> Sm.cmd -> unit) ->
    unit ->
    cluster
  (** One node per element of [locs] (normally three availability zones).
      [sm] builds a fresh state machine per node (and per restart —
      recovery replays the log). Defaults: election timeout uniform in
      [150, 300) ms, heartbeats every 40 ms, RPC timeout 50 ms. Must be
      called inside a running engine; nodes start as followers and elect
      a leader on their own. With [compaction_threshold] set, a node
      whose applied-but-uncompacted log reaches that many entries folds
      the prefix into a state-machine snapshot; followers that lag
      behind a compacted prefix catch up via snapshot installation.

      With [group_commit] the leader coalesces proposals: while an
      append is in flight, newly submitted commands queue up and are
      folded into the {e next} single log entry, so a burst of
      concurrent submissions pays one replication round instead of one
      per submission. Off by default — each submission then gets its own
      entry and replication round, exactly the unbatched behaviour.
      [on_batch] fires once per proposed entry on the leader with the
      entry's command count and the queueing delay of its oldest
      submission (0 for unqueued proposals) — hook it to a histogram.
      [on_apply node index cmd] fires for every command a node's state
      machine applies, with the log index of its entry (the commands
      of one entry share it, in order). A restarted node applies its
      log again from its snapshot, so an index can repeat. The cluster
      keeps no applied history itself; tests that compare applied
      sequences collect them here.

      [append_latency] (virtual ms, default 0 = free) models the
      durable log append: each proposed {e entry} pays it once, on a
      per-node device that serializes concurrent appends (the fsync
      queue). It is the resource group commit amortizes — [k] coalesced
      commands pay one append where unbatched submission pays [k] —
      and what makes the batching benchmark's load sweep meaningful;
      leave it 0 for protocol tests, where timing should come from the
      network alone. *)

  val size : cluster -> int

  val submit : ?timeout:float -> cluster -> Sm.cmd -> Sm.output option
  (** Replicate and apply one command; blocks until the leader applied it
      and returns its output. Retries internally across leader changes
      until [timeout] (default 1000 ms) virtual time has passed; [None]
      on timeout (e.g. no quorum alive). At-least-once on retry: a
      command re-submitted after a lost reply may apply twice — callers
      needing exactly-once must make commands idempotent, as the LVI
      server's lock records are. Snapshots and log compaction are
      supported; membership change is not. *)

  val submit_batch :
    ?timeout:float -> cluster -> Sm.cmd list -> Sm.output list option
  (** Like {!submit} for a whole command list: the batch lands in one log
      entry (one replication round), applies back-to-back with nothing
      interleaved between its commands, and returns the outputs in
      submission order. [Some []] for the empty batch without touching
      the cluster. Same retry/at-least-once semantics as {!submit} — a
      retried batch re-applies wholesale, so batches must be idempotent
      as a unit. *)

  val leader : cluster -> node_id option
  (** The live node that currently believes itself leader, if any. *)

  val crash : cluster -> node_id -> unit
  (** Stop a node: it ignores messages and loses volatile state. *)

  val restart : cluster -> node_id -> unit
  (** Revive a crashed node with its persistent state (term, vote, log);
      the state machine is rebuilt by replaying committed entries. *)

  val stop : cluster -> unit
  (** Crash every node. The cluster's perpetual fibers (election tickers,
      heartbeats) terminate on their next wakeup, letting the simulation
      reach quiescence — call this when an experiment is done, since
      [Engine.run] without [~until] only returns once no event remains. *)

  val is_alive : cluster -> node_id -> bool

  val current_term : cluster -> node_id -> int

  val log_length : cluster -> node_id -> int
  (** Logical log length (snapshot prefix included). *)

  val snapshot_index : cluster -> node_id -> int
  (** Last log index folded into the node's snapshot; 0 if none. *)

  val stored_entries : cluster -> node_id -> int
  (** Entries physically retained after compaction. *)

  val commit_index : cluster -> node_id -> int

  val on_apply : cluster -> (node_id -> int -> Sm.cmd -> unit) -> unit
  (** Replace the [on_apply] hook of {!create}, for a cluster built by
      another component (the replicated LVI server's lock store). *)

  val leaders_at_term : cluster -> int -> node_id list
  (** Every node that ever won the given term — safety tests assert the
      list never has two elements. *)
end
