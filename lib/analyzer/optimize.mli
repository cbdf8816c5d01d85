(** Residual-program optimizer.

    [Derive.residualize] is deliberately syntax-directed: it keeps every
    read whose value feeds a key or a branch {e syntactically}, even
    when the dependence evaporates semantically (both arms of a branch
    access the same keys, a folded constant decides a condition, a
    computation collapses to a literal). This pass shrinks the residual
    with semantics-preserving rewrites and then re-runs the dependency
    analysis on the smaller program, which can {e upgrade} the
    function's classification:

    - Dependent → Static: a control-relevant read whose branches turn
      out access-equivalent is demoted to a [Declare], so [predict] no
      longer pays a cache fetch for it;
    - Expensive → Dependent/Static: a key-relevant [Compute] whose
      argument folds to a constant is dropped along with its cost.

    Every rewrite preserves the access trace of the residual on all
    inputs (same keys read/written/declared, conditional accesses stay
    conditional), so the optimized residual predicts exactly the same
    [Rwset.t] as the raw one — the differential property test pins
    this. Classifications never get worse: if the re-analysis does not
    improve on the original, the original is kept. *)

val simplify :
  ?strip_compute:bool -> ?value_needed:bool -> Fdsl.Ast.expr -> Fdsl.Ast.expr
(** Constant folding and propagation, branch pruning under constant
    conditions, access-equivalent branch collapsing, dead pure-code
    elimination. [strip_compute] (default [false]) additionally drops
    [Compute] wrappers whose argument folded to a literal — only sound
    for residuals, where the cost model is advisory; never use it on a
    source function. [value_needed] (default [true]) states whether the
    expression's own value is observed; residual bodies pass [false]
    (predict discards the result). *)

val optimize : Derive.t -> Derive.t
(** Optimize the residual and reclassify. Manual derivations are
    returned unchanged (the developer owns the residual). *)

val upgraded : before:Derive.t -> after:Derive.t -> bool
(** Did [optimize] improve the classification (fewer dependent reads,
    or a strictly cheaper class)? *)
