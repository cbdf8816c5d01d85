(** The campaign runner: seed-driven chaos sweeps with shrinking.

    A single {!run_one} is fully deterministic in (seed, plan): it
    builds a fresh engine and deployment, launches the nemesis with the
    plan, drives a multi-site workload, waits out the fault horizon plus
    a drain window, and judges the quiescent state with the invariant
    {!Oracle}. {!sweep} fans that out over seeds × plan templates and
    {!shrink} reduces a failing plan to a 1-minimal event list that
    still reproduces a violation. *)

type config = {
  deployment : Radical.Framework.config;
      (** What to deploy — build it with {!Radical.Deployment.config}
          over [default_config.deployment]. Its [locations] are where
          the clients run. A [Replicated] server mode also admits the
          replicated-only templates; a sharded deployment puts the
          applications' multi-key functions on the cross-shard commit
          path, which the shard-chaos template attacks and the
          {!Oracle.cross_atomic} invariant judges. The fault campaign
          must find zero violations in every deployment. *)
  horizon : float;
      (** Window (virtual ms) within which template events start and
          finish. *)
  mutation : Radical.Server.protocol_mutation option;
      (** Deliberate protocol bug, injected into the server — the
          oracle-has-teeth demonstration. *)
}

val default_config : config
(** The paper deployment ({!Radical.Framework.default_config}) with an
    800 ms intent-timeout ceiling, a 5 s horizon, no mutation.

    The workload shape is fixed: 2 clients per site × 3 requests,
    400 ms think time, 5% network jitter, a 4 s drain after the
    horizon, and every 6th request a synthetic external payment with a
    fresh idempotency scope, feeding the exactly-once oracle. The
    application's [schema] is not checked. *)

type outcome = {
  violations : Oracle.violation list;
  fingerprint : string;
      (** Digest of the recorded history — equal across replays of the
          same (seed, plan) iff the run is deterministic. *)
  requests : int;
  client_errors : int;
      (** Requests whose client-visible result was an error (allowed
          under faults; they still participate in the history). *)
  faults_applied : int;
  faults_skipped : int;
}

val run_one :
  ?config:config -> seed:int -> Apps.Bundle.app -> Plan.t -> outcome
(** One deterministic chaos run. A crash anywhere in the run (engine
    fiber error) is reported as a ["no-crash"] violation rather than an
    exception; a run that never completes — a deadlocked workload or a
    teardown that cannot quiesce — is cut off at a virtual-time cap and
    reported as a ["stuck"] violation. *)

val shrink :
  ?config:config -> seed:int -> Apps.Bundle.app -> Plan.t -> Plan.t
(** Greedy delta-debugging: repeatedly drop events while the plan still
    produces at least one violation under [seed]; the result is
    1-minimal (removing any single remaining event makes the run pass).
    Per-event seeds make survivors' probabilistic decisions independent
    of removed events. Returns the plan unchanged if it never fails. *)

type case = {
  c_seed : int;
  c_template : string;
  c_plan : Plan.t;
  c_outcome : outcome;
}

type summary = {
  runs : int;
  total_requests : int;
  total_client_errors : int;
  total_faults_applied : int;
  total_faults_skipped : int;
  failures : case list;  (** Runs with at least one violation. *)
  replay_checks : int;
  replay_mismatches : case list;
      (** Runs whose replay produced a different history digest. *)
}

val sweep :
  ?config:config ->
  ?templates:Plan.template list ->
  ?replay_every:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  seeds:int ->
  Apps.Bundle.app ->
  summary
(** Run seeds 1..[seeds] against every template (skipping
    replicated-only templates on a singleton config). Every
    [replay_every]th run (default 25) is re-executed and its history
    digest compared. [progress] is called after each run. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable report: totals, then each failing case's seed,
    template, plan and violations. *)
