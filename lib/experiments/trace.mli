(** Request traces: generate, persist, and replay.

    The paper's workloads are synthesized from published parameters
    (§5.3) because production traces are proprietary; this module makes
    the synthetic equivalent a first-class artifact. A trace fixes the
    arrival time, origin location, handler and arguments of every
    request, so an experiment can be replayed bit-for-bit against any
    deployment — or shared as a plain text file. *)

type event = {
  at : float; (** Arrival time, virtual ms from trace start. *)
  from : Net.Location.t;
  fn : string;
  args : Dval.t list;
}

type t = event list

val generate :
  ?seed:int ->
  ?rate:float ->
  ?duration:float ->
  ?locations:Net.Location.t list ->
  Apps.Bundle.app ->
  t
(** Poisson arrivals (default 100 req/s for 10 s of virtual time) with
    requests drawn from the app's Table 1 mix and origins round-robin
    over the locations. *)

val save : t -> string -> unit
(** One event per line: [at <TAB> loc <TAB> fn <TAB> args], arguments in
    the DSL's literal syntax. *)

val load : string -> (t, string) result

val replay : ?seed:int -> Runner.system -> Apps.Bundle.app -> t -> Runner.result
(** Open-loop replay: each event fires at its recorded time regardless
    of earlier requests' completion. The app supplies functions and seed
    data; the trace supplies the load. The result reports the same
    rates as {!Runner.run}. *)
