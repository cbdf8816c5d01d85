(** The measurement targets of [bench/main.exe]. Each prints its report
    and returns what [--json] writes to [BENCH_<name>.json]. *)

type t = {
  name : string;
  doc : string; (** One line, for the usage text. *)
  run : unit -> Runner.measurement list;
}

val paper : scale:float -> t list
(** Figures 1 and 4–6, Tables 1–2, §5.5–§5.7 and our ablations at
    [scale], in the order [bench/main.exe all] runs them. Figures 4–6
    of one list share one collected evaluation, made on first use: look
    every name up in one list to collect it once. *)

val features : scale:float -> t list
(** The feature experiments at [scale], the {!Sweeps} values run by
    {!Sweep.run}: batching, propagation, leases, sharding. *)
