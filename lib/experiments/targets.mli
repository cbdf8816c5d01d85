(** The measurement targets of [bench/main.exe]. Each prints its report
    and returns what [--json] writes to [BENCH_<name>.json]. *)

type t = {
  name : string;
  doc : string; (** One line, for the usage text. *)
  run : scale:float -> Runner.measurement list;
}

val paper : t list
(** Figures 1 and 4–6, Tables 1–2, §5.5–§5.7 and our ablations, in the
    order [bench/main.exe all] runs them. Figures 4–6 share one
    collected evaluation per scale. *)

val features : t list
(** The feature experiments: batching, propagation, leases, sharding. *)

val find : string -> t option
(** Look a target up by name in [paper @ features]. *)
