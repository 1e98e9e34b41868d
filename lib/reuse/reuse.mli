(** Static reuse-vocabulary analysis of transformed loop nests.

    Implements a Kong-Pouchet-style performance vocabulary (arXiv
    1811.06043) on top of the paper's per-statement transformations
    (Definition 7): for a statement [S] with non-singular [T_S], one
    step of the [p]-th transformed loop moves the original iteration
    vector along the [p]-th column of [T_S^-1].  Every array reference's
    subscripts are affine in the original iterators, so the per-step
    subscript delta along each transformed loop is exact integer
    arithmetic, and each reference is classified {e per transformed loop
    dimension} as

    - {!Temporal} — every subscript invariant (the same cell each
      iteration),
    - [Spatial s] — only the last (fastest-varying, row-major) subscript
      moves, by [0 < s < line_elems] elements (same cache line for
      [line_elems/s] iterations),
    - {!NoReuse} — a new line per iteration (streaming or worse),
    - {!Unknown} — [T_S] singular (augmentation will add loops whose
      locality is not determined yet) or the work budget ran out.

    Directions are normalized to primitive integer vectors, so the
    classes — and the {e reuse signature} folding them per statement —
    are invariant under schedule-preserving row scaling (and row
    negation) of the transformation: locality-equivalent candidates
    collapse onto one signature, which is what lets the search score an
    equivalence class once and simulate one representative per class.
    Signatures are memoized process-wide (the {!Inl_diag.Memo} table
    ["reuse memo"]) keyed on {!Inl.Perstmt.canonical_rows} of every
    [T_S] plus the access matrices, so re-scoring a known class is a
    table lookup from any worker domain.

    The numeric {!score} subsumes the search's original static cost
    tier: identical weights (a nominal trip count of 16 per loop depth)
    and identical per-reference costs ([0] temporal, [s/line_elems]
    spatial, [1] otherwise; singular statements charge [1] per
    reference), so rankings pinned before this module existed are
    preserved for unimodular candidates. *)

module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag

type cls = Temporal | Spatial of int  (** stride in elements *) | NoReuse | Unknown

type ref_sig = {
  array : string;
  text : string;  (** the reference as written, e.g. ["A(I2,K)"] *)
  is_write : bool;
  classes : cls array;
      (** one class per transformed loop dimension, outermost first;
          length = the statement's depth *)
}

type stmt_sig = {
  label : string;
  depth : int;
  loops : string list;
      (** the statement's loop variables in transformed order (names are
          the source loops' — code generation renames later) *)
  singular : bool;  (** [T_S] singular: every class is {!Unknown} *)
  truncated : bool;  (** work budget ran out: every class is {!Unknown} *)
  refs : ref_sig list;  (** left-hand side first, then right-hand side in
                            evaluation order *)
}

type t = { line_elems : int; stmts : stmt_sig list }

val collect_refs : Ast.stmt -> Ast.aref list
(** The statement's array references: left-hand side first, then every
    reference of the right-hand side in evaluation order. *)

val signature : ?line_elems:int -> ?work_budget:int -> Inl.context -> Inl.Blockstruct.t -> t
(** The reuse signature of a checked block structure.  [line_elems]
    (default 8 = 64-byte lines of 8-byte elements) is the cache line
    size in array elements.  [work_budget] caps the classification work
    at one unit per reference x dimension; statements past the cap come
    back {!stmt_sig.truncated} with {!Unknown} classes (budget-aware
    analyses pass the Fourier-Motzkin work allowance here).  Unbudgeted
    signatures are memoized process-wide; budgeted ones are not (the
    stored value would depend on the budget). *)

val key : t -> string
(** Canonical compact form: per statement (in program order) the depth
    and the {e sorted multiset} of per-reference class strings — labels,
    array names and reference order are folded away, so two signatures
    share a key exactly when every statement has the same shape of reuse.
    Equal keys imply equal {!score}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Both are {!key} comparisons. *)

val score : t -> float
(** The vectorized static score, lower is better (see the module
    preamble for the exact model).  A deterministic function of the
    signature. *)

val static_score : ?line_elems:int -> Inl.context -> Inl.Blockstruct.t -> float
(** [score] of [signature] — the drop-in replacement for the search's
    original static cost tier. *)

val weighted_score : t -> float
(** Depth-weighted variant of {!score}: each reference is charged its
    cheapest dimension, where a class at distance [q] outward from the
    innermost position costs [1 - (1 - cls_cost) * 0.5^q].  At [q = 0]
    this equals the innermost charge, and the discount halves per level
    outward, so a reference's weighted charge never exceeds its
    innermost charge.  References whose best reuse sits in an outer
    dimension get cheaper — which is the point: it closes the
    documented jki blind spot (middle-loop spatial reuse the
    innermost-only model cannot see), at the cost that orderings under
    {!score} are not always preserved when references differ in where
    their reuse lives.  [test/test_reuse.ml] keeps the weighting honest
    against the cache simulator.  Deterministic function of
    the signature, same units as {!score}, lower is better. *)

val weighted_static_score : ?line_elems:int -> Inl.context -> Inl.Blockstruct.t -> float
(** [weighted_score] of [signature] — the search's ranking tier. *)

val unknown_refs : t -> int
(** References whose innermost class is {!Unknown} — the ones charged
    the pessimistic cost [1] by {!score}.  Non-zero means the score is
    degraded (the search surfaces this once per run as warning [S904]). *)

val truncated_stmts : t -> int

(** {2 The process-wide signature memo} *)

val memo_stats : unit -> Inl_diag.Memo.stats
val clear_memo : unit -> unit

(** {2 The [inltool analyze --reuse] report} *)

type report = { signature : t; score : float; weighted : float; diags : Diag.t list }
(** [diags] follow the {!Inl_diag} conventions (phase [Analysis]):
    warnings [U101] (a statement's innermost loop carries no temporal or
    spatial reuse for some reference — streaming access), [U102] (an
    outer loop carries temporal reuse for a reference that streams
    innermost — permuting it innermost would hoist the reuse), [U901]
    (singular [T_S], classes unknown) and [U902] (work budget exhausted,
    statements unclassified).  No errors are ever produced: degraded
    analysis is exit code 2, per the driver's contract. *)

val analyze : ?line_elems:int -> ?work_budget:int -> Inl.context -> Inl.Blockstruct.t -> report

val render : report -> string
(** Human rendering of the per-statement, per-dimension classes plus the
    static score — the body of [inltool analyze --reuse]. *)
