(** Function catalog: the ground truth of Table 1, plus the full
    29-function inventory across the five ported applications (§3.4,
    §5.1). The benchmark harness checks its measurements against these
    figures and reprints the table. *)

type info = {
  fn_name : string;
  app : string;
  description : string;
  writes : bool;
  dependent : bool;
      (** Asterisk in Table 1: needed the dependent-read optimization. *)
  exec_ms : float; (** Median execution time reported in Table 1. *)
  workload_pct : float; (** Share of the app's request mix. *)
}

val table1 : info list
(** The 16 functions of the three evaluated applications, in Table 1
    order. *)

val all_functions : Fdsl.Ast.func list
(** All 29 handlers across the five applications. *)

val all_apps : (string * Fdsl.Ast.func list) list
(** All five applications with their handlers, in catalog order. *)

val find : string -> info option

val manual_overrides :
  (Fdsl.Ast.func * Fdsl.Ast.func * Dval.t list list) list
(** Catalog functions whose [f^rw] is developer-written (§7) because
    automatic derivation fails — currently [ib-flag], whose control flow
    goes through an opaque moderation policy. Each entry carries sample
    input vectors for {!check_manuals}. *)

val manual_rw_of : string -> Fdsl.Ast.func option
(** The manual residual for a function name, if it has one. *)

val check_manuals :
  ?read:(string -> Dval.t) -> unit -> (string * (unit, string) result) list
(** Run {!Analyzer.Derive.check_manual} on every manual override: the
    source executes on each sample against [read] (default: empty
    store), and its actual access set is compared with the residual's
    prediction. Intended for registration-time CI; the test suite calls
    it against representative seed data. *)
