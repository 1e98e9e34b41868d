(** Dependence analysis for imperfectly nested loops (Section 3).

    For every ordered pair of conflicting references (at least one a
    write, same array) the analyzer builds the affine system of
    Equations 2-3 — loop bounds for both instances, subscript equality,
    and execution order — and projects it onto the instance-vector
    difference coordinates with the exact integer engine
    ({!Inl_presburger.Omega}).  Execution order is handled per level, as
    is standard: one candidate system per common loop that could carry
    the dependence, plus the loop-independent case when the source
    precedes the target syntactically. *)

module Layout = Inl_instance.Layout

val bounds_constraints :
  Layout.stmt_info -> (string -> string) -> Inl_presburger.Constr.t list
(** Loop-bound constraints for one statement's instance, with the loop
    variables renamed by the given function (parameters untouched).
    Exposed for reuse by code generation.
    @raise Invalid_argument on covering (union) bounds, which only appear
    in generated programs. *)

val reads_of : Layout.stmt_info -> Inl_ir.Ast.aref list
(** Array references read by the statement, left to right. *)

val writes_of : Layout.stmt_info -> Inl_ir.Ast.aref list

val dependences : Layout.t -> Dep.t list
(** All dependences of the program underlying the layout, sorted by
    {!Dep.compare} — (src, dst, array, kind, level, vector) — so
    sequential and parallel runs byte-match.  Never
    raises on resource exhaustion: when a projection blows its budget
    (or an {!Inl_diag.Faults} failure is injected), the affected level is
    reported as a conservative {e approximate} dependence — direction
    [(0,…,0,+,*,…)] over the common loops — whose solution set is a
    superset of the exact one. *)

val dependences_diag : Layout.t -> Dep.t list * Inl_diag.Diag.t list
(** Like {!dependences}, also returning one warning diagnostic (code
    [A201]) per approximate dependence, in reference-pair traversal
    order.  Runs on a fresh {!Inl_presburger.Omega.new_analysis} context
    (per-analysis projection counter, shared query cache), fanning the
    per-reference-pair queries out over the {!Inl_parallel.Pool}; results
    are deterministic across repeated runs and worker counts. *)

val concrete_dependences :
  Layout.t -> params:(string * int) list -> (string * string * Dep.kind * int array) list
(** Test oracle: runs the program's access pattern exhaustively for the
    given parameter values and reports every dependent instance pair as
    [(src, dst, kind, instance-vector difference)].  Exponential; small
    parameters only. *)
