(** Function registration (§3.2 "function registration", §4).

    Registering a function runs the full toolchain: compile the DSL
    source to the deterministic VM, validate the module (rejecting
    nondeterministic imports — the paper's WasmTime configuration), and
    run the static analyzer to derive [f^rw]. Analysis failure is not
    fatal — the function is registered without a derived [f^rw] and
    every invocation falls back to near-storage execution (§3.3
    "Failure case"); a determinism violation is fatal. *)

type entry = {
  func : Fdsl.Ast.func;
  modul : Wasm.Wmodule.t; (** Compiled, validated module. *)
  raw_derived : Analyzer.Derive.t option;
      (** [f^rw] exactly as the analyzer produced it. [None]:
          unanalyzable. *)
  derived : Analyzer.Derive.t option;
      (** [raw_derived] after {!Analyzer.Optimize.optimize} — the
          residual the runtime actually predicts with. Possibly upgraded
          (e.g. Dependent → Static). Manual residuals pass through
          unchanged. *)
  summary : Analyzer.Absint.summary;
      (** Key-shape abstraction of the {e source} — total, present even
          when derivation failed. *)
  read_only : bool;
      (** The source provably writes no key and calls no external
          service; such invocations are eligible for the server's
          validate-only LVI fast path. *)
  certificate : Analyzer.Certify.report option;
      (** Bytecode effect certification report ({!Analyzer.Certify}) —
          always a passing one for stored entries. [None] when the gate
          was disabled at registration time. *)
}

type t

val create : unit -> t

val set_certification : bool -> unit
(** Globally enable/disable the bytecode effect-certification gate that
    {!register}/{!register_manual} run after determinism validation.
    Enabled by default; with it disabled, registration performs exactly
    the pre-certification pipeline (the escape hatch for reproducing
    seed behavior bit for bit). *)

val register : t -> Fdsl.Ast.func -> (entry, string) result
(** Compile, validate determinism, derive f^rw, and (unless disabled)
    certify the compiled bytecode's effects against the derived f^rw —
    a failing certificate is fatal, like a determinism violation. *)

val register_manual :
  t -> Fdsl.Ast.func -> rw_func:Fdsl.Ast.func -> (entry, string) result
(** Register with a developer-provided [f^rw] instead of running the
    analyzer (§7) — for functions the symbolic execution cannot handle.
    The function itself still goes through compilation and determinism
    validation. *)

val find : t -> string -> entry option

val names : t -> string list
(** Registered function names, sorted. *)

val analyzable_count : t -> int

val conflicts : t -> Analyzer.Conflict.report
(** Whole-program pairwise conflict report over every registered
    function's key-shape summary (Table-1-style matrix). Memoized;
    recomputed after the next registration. *)

val find_pair : t -> string -> string -> Analyzer.Conflict.verdict option
(** {!Analyzer.Conflict.find_pair} on {!conflicts}: the static verdict
    for a pair of functions, [None] when either is unregistered.
    Memoized per pair; forgotten at the next registration. *)

val conflict_degree : t -> string -> int
(** Number of {e other} registered functions this one may conflict with
    (shared shape with a write involved). Exported to metrics/traces so
    operators can see how contended a function is by construction. *)
