(** Named deployments: the one place that decides what a feature means
    as a {!Framework.config}. The paper's evaluation deployment is the
    empty feature list; each feature changes only its own fields, so
    features compose in any order. *)

type feature =
  | Replicated
      (** Raft-replicated LVI server (§5.6): three AZs, 1.5 ms apart. *)
  | Batched
      (** Every batching knob ({!Server.full_batching}) plus followup
          coalescing (2 ms window) and piggybacking. On a singleton
          server Raft group commit has nothing to batch; the rest still
          applies. *)
  | Propagating  (** {!Server.default_propagation}. *)
  | Leased  (** {!Server.default_leases}. *)
  | Sharded of int  (** The LVI service hash-sharded N ways. *)

val config : ?base:Framework.config -> feature list -> Framework.config
(** [base] (default {!Framework.default_config}) with every feature
    applied. [config []] is [base]. *)

val of_string : string -> (feature list, string) result
(** The CLI spelling: [paper], or a comma-separated list of
    [replicated], [batched], [propagating], [leased] and [sharded=N]
    with N ≥ 2. *)

val to_string : feature list -> string
(** Inverse of {!of_string}: [of_string (to_string fs) = Ok fs]. *)
