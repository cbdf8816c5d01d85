(** Declarative fault plans.

    A plan is a list of scheduled events on the virtual clock; the
    nemesis ({!Nemesis}) applies them to a live deployment. Events that
    make probabilistic per-message decisions (e.g. "drop 60% of
    followups for 800 ms") carry their own RNG seed, fixed at plan
    generation time — so removing one event during shrinking never
    perturbs another event's decisions, and fault decisions never touch
    the transport's jitter stream.

    Plans are generated from {!template}s (seed-driven campaign sweeps)
    or written literally (tests, drills). *)

type msg_filter = {
  f_label : string option;  (** [None] matches any service label. *)
  f_src : Net.Location.t option;
  f_dst : Net.Location.t option;
}

val any_message : msg_filter

val followups : ?src:Net.Location.t -> unit -> msg_filter
(** Matches write-followup messages (optionally from one site only). *)

val cache_updates : ?dst:Net.Location.t -> unit -> msg_filter
(** Matches cache-update propagation messages (optionally to one site
    only). *)

val shard_prepares : unit -> msg_filter
(** Matches cross-shard prepare requests between LVI shards. *)

val shard_decides : unit -> msg_filter
(** Matches cross-shard decision broadcasts between LVI shards. *)

val lease_revokes : ?dst:Net.Location.t -> unit -> msg_filter
(** Matches lease-revocation messages from the LVI server's write path
    to near-user sites (optionally to one site only). Safe to drop
    outright: the writer's RPC times out and falls back to waiting out
    the lease expiry plus ε. *)

type action =
  | Drop_messages of { filter : msg_filter; prob : float; duration : float }
      (** Drop each matching message with probability [prob] for
          [duration] ms. *)
  | Duplicate_messages of {
      filter : msg_filter;
      prob : float;
      duration : float;
    }
      (** Deliver each matching message twice (independently sampled
          latencies, so the copy may overtake the original) with
          probability [prob] for [duration] ms — at-least-once
          delivery. Receivers dedupe: the LVI server through its reply
          cache, cache-update installs through the version guard. *)
  | Delay_messages of {
      filter : msg_filter;
      extra : float;
      prob : float;
      duration : float;
    }  (** Add [extra] ms to each matching message with probability
          [prob] for [duration] ms. *)
  | Partition of { group : Net.Location.t list; duration : float }
      (** Cut [group] off from the rest of the world, heal after
          [duration] ms. Fire-and-forget followups crossing the cut are
          lost; request/response traffic is held until the heal (the
          transport models TCP retransmission — the protocol has no
          client-side retry, so an outright drop would strand the
          caller). *)
  | Crash_raft_node of { victim : [ `Leader | `Node of int ]; downtime : float }
      (** Crash one node of the replicated LVI server's lock cluster and
          restart it after [downtime] ms. No-op on a singleton server. *)
  | Restart_server
      (** Restart the LVI server: volatile intent timers are lost,
          recovery re-executes orphaned intents ({!Radical.Server.restart_recover}). *)
  | Restart_shard of int
      (** Restart shard [i mod shards]'s LVI server (shard 0, the sole
          server, in a one-shard deployment). A
          restarted participant keeps its durable prepared slices; the
          coordinator's retried decisions conclude them. *)
  | Crash_shard_leader of { shard : int; downtime : float }
      (** Crash the Raft leader of shard [shard mod shards]'s lock
          cluster and restart it after [downtime] ms. No-op on
          singleton servers. *)
  | Wipe_cache of Net.Location.t
      (** Drop one site's near-user cache (it self-repairs through
          protocol traffic). *)
  | Pause_site of { loc : Net.Location.t; duration : float }
      (** Freeze one site (a runtime GC pause / VM migration): every
          message to or from [loc] is held until the pause ends. *)

type event = { at : float; ev_seed : int; action : action }

type t = event list

val event : ?seed:int -> at:float -> action -> event
(** Literal event constructor (default seed 0 — fine for deterministic
    actions and [prob >= 1.0] message faults). *)

val horizon_of : t -> float
(** Virtual instant by which every event has been applied and undone
    (max over [at] + duration/downtime). *)

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {2 Templates} *)

type template = {
  t_name : string;
  t_replicated_only : bool;
      (** Only meaningful against a Raft-replicated LVI server. *)
  t_gen :
    rng:Sim.Rng.t ->
    horizon:float ->
    locations:Net.Location.t list ->
    t;
      (** Generate a plan whose events all start and finish within
          [horizon] ms. *)
}

val default_templates : template list
(** The campaign's default sweep: followup storms, general message
    chaos, cache wipes + site pauses, mid-flight server restarts,
    partitions, (replicated only) Raft node churn, lost/duplicated/
    delayed cache-update propagation, cross-shard commit chaos
    (delayed prepares, dropped decisions, shard restarts and per-shard
    leader crashes), and read-lease chaos (lost/duplicated/delayed
    revocations, cache wipes, late cache updates). New templates append
    at the end — a template's campaign seed derives from its list
    index. *)

val find_template : string -> template option
