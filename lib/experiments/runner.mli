(** The experiment harness. Every simulated experiment runs through
    {!simulate}: one engine, one transport, one deployment, the
    caller's load, then the stop. On top of it sit the closed-loop
    runner (§5.2's 50 logical clients, {!run}), the open-loop cell of
    the load sweeps ({!open_loop}), and the output every experiment
    shares: its banner ({!heading}) and its BENCH file
    ({!write_json}). *)

type measurement = string * float
(** One named number an experiment reports. The list an experiment
    returns is what [bench/main.exe --json] writes to its BENCH file. *)

val heading : string -> unit
(** Print an experiment's banner: its title between two rules. *)

val scaled : float -> int -> int
(** [scaled scale n] is [n * scale] rounded down, at least 1: a
    request volume at bench scale [scale]. *)

type system =
  | Radical (** The full framework. *)
  | Radical_with of Radical.Framework.config
  | Central (** Primary-datacenter baseline. *)
  | Local (** Inconsistent local storage — the red-line ideal. *)
  | Geo of Net.Location.t list (** Consistent geo-replicated storage. *)
  | Naive_edge (** App near user, storage ops to VA per access (§2). *)
  | Validate_per_read
      (** §1's late-reads strawman: near-user execution with a blocking
          per-read validation round trip. *)

(** {1 The simulation skeleton} *)

type deployment =
  | Framework of Radical.Framework.t
  | Baseline of Radical.Baselines.t

exception Unfinished

val simulate :
  ?until:float ->
  seed:int ->
  jitter:float ->
  tracer:Metrics.Tracer.t ->
  locations:Net.Location.t list ->
  system ->
  funcs:Fdsl.Ast.func list ->
  schema:Fdsl.Typecheck.schema ->
  data:(Sim.Rng.t -> (string * Dval.t) list) ->
  (deployment -> Sim.Rng.t -> 'a) ->
  'a
(** One simulated run in a fresh engine seeded [seed]: the engine's RNG
    is split first for a transport with [jitter] and [tracer]; [data rng]
    gives the seed data; [system] is deployed over [locations] (a
    [Radical_with] config's own are replaced) with [funcs], typechecked
    against [schema], its framework sharing [tracer]. Then [load d rng]
    runs the caller's workload, its own RNG splits, any drain and the
    reading of its counters; the framework stops and [load]'s result is
    returned. A fiber's exception propagates as {!Sim.Engine.Fiber_error}.
    @raise Unfinished if the engine quiesced, or its clock reached
    [until], before [load] and the stop returned. *)

val invoke :
  deployment -> from:Net.Location.t -> string -> Dval.t list -> float * bool
(** One invocation on either kind of deployment: its latency and
    whether its result was an error. *)

val framework : deployment -> Radical.Framework.t
(** The framework of a Radical deployment.
    @raise Invalid_argument on a baseline. *)

(** {1 Closed-loop runs} *)

type sample = { s_loc : Net.Location.t; s_fn : string; s_latency : float }

type result = {
  samples : sample list;
  validation_rate : float option;
      (** validated / (validated + mismatched); Radical runs only. *)
  spec_rate : float option;
      (** Fraction of requests answered by the speculative path. *)
  errors : int;
}

val collect :
  seed:int ->
  jitter:float ->
  tracer:Metrics.Tracer.t ->
  locations:Net.Location.t list ->
  system ->
  Apps.Bundle.app ->
  (Sim.Rng.t -> (from:Net.Location.t -> string -> Dval.t list -> unit) -> unit) ->
  result
(** {!simulate} the app over its seed data (one RNG split), the load
    getting the RNG and an invoke that records a sample per request. *)

val run :
  ?seed:int ->
  ?locations:Net.Location.t list ->
  ?clients_per_loc:int ->
  ?requests_per_client:int ->
  ?jitter:float ->
  ?tracer:Metrics.Tracer.t ->
  system ->
  Apps.Bundle.app ->
  result
(** Defaults: the five user locations, 10 clients each, 40 requests per
    client (2,000 requests total), 5%% latency jitter. Clients think
    500 ms between requests (paced load — the paper measures latency,
    not saturated throughput). Each sample is one invocation's
    end-to-end latency at its client's location.

    An enabled [tracer] (default noop) is threaded through the transport
    and — for the Radical systems — the framework, collecting one span
    tree and per-phase histograms per request; inspect it after [run]
    returns (e.g. {!Metrics.Tracer.phases_json}). Baseline systems only
    record wire times. *)

(* Aggregations. *)

val overall : result -> Metrics.Stats.t

val by_fn : result -> (string * Metrics.Stats.t) list

val by_loc : result -> (Net.Location.t * Metrics.Stats.t) list
(** In [Location.user_locations] order (locations present only). *)

val median_of : result -> float

val p99_of : result -> float

(** {1 Open-loop cells} *)

type load = {
  offered : float; (** Requests per virtual second. *)
  achieved : float; (** Completions / time to the last completion. *)
  median : float;
  p99 : float;
  requests : int;
  errors : int;
}

val open_loop :
  Radical.Framework.t ->
  rate:float ->
  duration:float ->
  rng:Sim.Rng.t ->
  (arrival:int -> Radical.Runtime.outcome) ->
  load
(** Poisson arrivals at [rate] for [duration] ms
    ({!Workload.Driver.run_open}), each issuing the callback's request.
    A Raft-replicated server first gets 800 ms to elect its leader. *)

val rate_label : float -> string
(** An offered rate as printed in the sweep tables ("400/s"). *)

val peak_sustainable : load list -> float
(** Highest offered rate below the latency knee. The knee is the first
    cell whose median exceeds 2x the first (lowest-rate) cell's median;
    no cell from the knee on counts, even where a later median falls
    back. 0 for an empty list or a NaN first median. *)

(** {1 BENCH files} *)

val write_json :
  ?dir:string ->
  experiment:string ->
  config:(string * string) list ->
  measurement list ->
  string
(** Write [<dir>/BENCH_<experiment>.json] (default [dir] the working
    directory), the file behind [bench/main.exe --json]: [config]
    records the run parameters as strings, non-finite measurements
    serialize as [null]. Returns the written path. *)
