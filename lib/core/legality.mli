(** The legality test of Definition 6.

    A transformation matrix [M] is legal when (i) it has the recursive
    block structure ({!Blockstruct}), and (ii) for every dependence [d]
    from [S1] to [S2], the projection [P] of [M.d] onto the loops common
    to [S1] and [S2] (taken in the transformed program's outer-to-inner
    order) satisfies [P > 0], or [P = 0] with [S1] syntactically before
    [S2] in the new AST.  A self-dependence with [P = 0] is merely
    {e unsatisfied}: it must later be carried by the extra loops added
    during augmentation (Section 5.4), so the verdict reports the
    unsatisfied dependences rather than rejecting them.

    Dependence vectors are interval (box) abstractions, so the check is
    conservative: [Legal] certifies every concrete dependent pair. *)

module Mat = Inl_linalg.Mat
module Interval = Inl_presburger.Interval
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout

type verdict =
  | Legal of { structure : Blockstruct.t; unsatisfied : Dep.t list }
  | Illegal of string

val transformed_vector : Mat.t -> Dep.t -> Interval.t array
(** [M . d] by exact interval arithmetic, indexed by new positions. *)

module Key : sig
  type t = { k_dep : Dep.t; k_dep_hash : int; k_rows : int array; k_src_precedes : bool }

  include Hashtbl.HashedType with type t := t
end
(** The key of both verdict tiers, exactly what a verdict reads: the
    dependence (and its hash, taken once per {!env}), the candidate's
    rows at the new positions of its common loops — outer-to-inner,
    flattened, in native ints — and the transformed syntactic order of
    its endpoints. *)

type cache
(** Memo of per-dependence verdicts on {!Key}.  The completion search
    shares one across candidate matrices (which differ in few rows),
    turning repeated leaf checks into lookups.  Safe for concurrent
    use. *)

val make_cache : unit -> cache

val check : ?jobs:int -> ?cache:cache -> Layout.t -> Mat.t -> Dep.t list -> verdict
(** With [jobs > 1] the per-dependence classifications fan out over
    {!Inl_parallel.Pool}; the verdict is schedule-independent (the first
    offender in dependence order is reported, and the sequential path
    stops classifying at it). *)

val is_legal : ?jobs:int -> ?cache:cache -> Layout.t -> Mat.t -> Dep.t list -> bool

(** {1 Incremental (delta) checking}

    A beam search extends a known-legal parent state by one move.  The
    verdict of one dependence is a pure function of (a) the candidate's
    rows at the new positions of the dependence's common loops, taken in
    the transformed outer-to-inner order, and (b) for cross-statement
    dependences, the transformed syntactic order of its endpoints.  So
    when every common loop of a dependence sits at the same new position
    with the same row in both parent and child, and its endpoints keep
    the same transformed syntactic order, the child's verdict provably
    equals the parent's and is inherited without re-deriving it.  Anything short of
    that proof falls back to the full classification (per-search cache →
    process-wide memo → interval arithmetic), so the delta never weakens
    the check — it only skips recomputing verdicts whose inputs are
    bit-identical. *)

type env
(** Per-(program, dependence-set) precomputation shared by every
    candidate of a search: dependence hashes for the verdict keys, common
    old-loop positions and untransformed statement paths per
    dependence. *)

val make_env : Layout.t -> Dep.t list -> env

type summary
(** What the delta test compares between parent and child: per old loop
    position its new position and matrix row, the per-dependence
    transformed endpoint order (with the statement permutation it was
    derived from, so equal permutations share the array), and the
    per-dependence verdicts.  Produced only for [Legal] candidates
    (only those are ever extended). *)

val check_env :
  ?cache:cache ->
  ?parent:summary ->
  ?rows:int array array ->
  env ->
  Mat.t ->
  verdict * summary option
(** Like {!check} (sequential, first offender in dependence order), but
    (i) consults the process-wide verdict memo behind the per-search
    [cache], and (ii) given the [parent] summary, inherits every verdict
    whose inputs are unchanged by the move.  [rows] is the matrix in
    native ints, when the caller has it already. *)

(** {1 Process-wide verdict memo}

    The {!Inl_diag.Memo} table ["legality memo"], on {!Key}.  It
    survives across searches and passes, so a re-search of a known
    program classifies dependences by lookup. *)

val memo_stats : unit -> Inl_diag.Memo.stats
(** Hits/misses/evictions/entries of the process-wide verdict memo. *)

val clear_memo : unit -> unit

val delta_stats : unit -> int * int
(** [(inherited, checked)] verdict counts over all {!check_env} calls
    since the last {!reset_delta_stats}. *)

val reset_delta_stats : unit -> unit
