(** Feature sweeps as data ({!Sweeps}). A sweep runs one workload over
    cells named by a key: a {!Radical.Framework.config} variant at an
    offered rate or a client volume, each one {!Runner.simulate} at
    seed 42 over the user sites. It prints its tables through one list
    of columns, returns each table's BENCH series, and ends in a verdict
    that prints the acceptance lines and returns the [accept]
    measurements. *)

type call = string * Dval.t list
(** A function name and its arguments. *)

type requests =
  | Open of { rate : float; duration : float; draw : Sim.Rng.t -> call }
      (** {!Runner.open_loop} for [duration] ms, sites round robin by
          arrival. [draw] takes each call from the workload RNG, split
          from the cell's RNG before the arrivals' RNG. *)
  | Closed of {
      clients_per_loc : int;
      requests_per_client : int;
      think_time : float;
      drain : float;
      draw : Sim.Rng.t -> clients:int -> client:int -> iter:int -> call;
    }
      (** {!Workload.Driver.run_clients} over [clients_per_loc] clients
          per site, then [drain] ms for straggling followups.
          [draw rng ~clients] splits its own RNGs from the cell's. *)

type 'k row = {
  key : 'k;
  load : Runner.load; (** A closed loop's has NaN [offered] and [achieved]. *)
  outcomes : (string * Radical.Runtime.outcome) list;
      (** Every call by function name, most recent first. *)
  counts : (string * int) list; (** See {!counters}. *)
  dists : (string * Metrics.Stats.t) list;
}

val counters :
  Radical.Framework.t ->
  Metrics.Tracer.t ->
  (string * int) list * (string * Metrics.Stats.t) list
(** What a row keeps of a cell once its load is done. Counts, one entry
    per component: ["server.<field>"] and ["runtime.<field>"], the
    fields the sweeps read of each LVI server's {!Radical.Server.stats}
    and each site's {!Radical.Runtime.stats}; ["shard.<id>.requests"] and
    ["shard.<id>.cross"] of {!Metrics.Tracer.shard_stats}, and
    ["phase.<phase>"] per traced function and path. Distributions:
    copies of the tracer's batch sizes (["batch.<label>"]) and queue
    delays (["queue.<label>"]). *)

type 'k table = {
  heading : string;
  keys : 'k list;
  bench : 'k row -> string; (** A row's BENCH name prefix. *)
  series : (string * ('k row -> float)) list; (** Suffix and value. *)
  notes : 'k row list -> unit; (** Printed after the table. *)
}

type 'k t = {
  title : string;
  intro : string;
  funcs : Fdsl.Ast.func list;
  seed_data : (string * Dval.t) list;
  config : 'k -> Radical.Framework.config;
  requests : 'k -> requests;
  traced : 'k -> bool; (** Whether the cell's tracer is enabled. *)
  tables : 'k table list;
  columns : (string * ('k row -> string)) list; (** Header, formatter. *)
  verdict : 'k row list -> Runner.measurement list;
      (** Gets every row, in the order the cells ran. *)
}

val run : 'k t -> Runner.measurement list
(** Print the banner and intro, then each table between its heading and
    notes, then the verdict. A key in several tables runs once. Returns
    the tables' series, in table and key order, then the verdict's. *)

(** {1 Reading rows} *)

val find : 'k row list -> 'k -> 'k row

val count : 'k row -> string -> int
(** The sum of the counts so named; 0 when none is. *)

val dist : 'k row -> string -> Metrics.Stats.t option

val latencies : (string * Radical.Runtime.outcome) list -> Metrics.Stats.t

val on_path : Radical.Runtime.path -> 'k row -> int
(** The outcomes that took the path. *)

val counted : string -> string -> string * ('k row -> string)
(** [counted header name] is the column of a {!count}. *)

val load_columns : (string * ('k row -> string)) list
(** offered, achieved, median, p99, req and err. *)

val load_series : (string * ('k row -> float)) list
(** [median_ms], [p99_ms] and [achieved_rps]. *)

val dash : (float -> string) -> float -> string
(** ["-"] for NaN, the formatter otherwise. *)

val flag : bool -> float
(** An acceptance flag: 1 or 0. *)
