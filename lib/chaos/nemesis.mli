(** The nemesis: applies a fault plan to a live deployment.

    [launch] must be called inside the engine, normally at the start of
    a run; it spawns one fiber per event, each sleeping on the virtual
    clock until its instant and then applying (and later undoing) its
    fault through the transport's composable hooks, the server's
    restart/crash entry points, and the per-site caches. Message faults
    draw per-message randomness from an RNG seeded by the event itself,
    never from the transport's jitter stream. *)

type stats = {
  applied : int;  (** Events whose fault took effect. *)
  skipped : int;
      (** Events that did not apply to this deployment (e.g. a Raft
          crash against a singleton server, a wipe at an absent site). *)
}

type t

val launch : Radical.Framework.t -> Plan.t -> t

val stats : t -> stats
