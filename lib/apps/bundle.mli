(** Application bundles deployed by the experiment harness and attacked
    by the chaos campaigns: functions, seed data, and a workload
    generator with Table 1's request mix. *)

type app = {
  name : string;
  funcs : Fdsl.Ast.func list;
  schema : Fdsl.Typecheck.schema; (** For registration-time typechecking. *)
  seed : Sim.Rng.t -> (string * Dval.t) list;
  new_gen : unit -> Sim.Rng.t -> string * Dval.t list;
}

val social : app

val hotel : app

val forum : app

val evaluated : app list
(** The three applications of Figures 4–6. *)

val simple : app
(** Figure 1's base-case application: ~100 ms of computation and a
    single storage read, keys selected uniformly. *)
