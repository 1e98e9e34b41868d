(** Exact elimination of integer variables from affine constraint systems —
    the role played by the Omega tool-kit (Pugh [11]) in the paper's
    dependence analysis (Section 3).

    The engine is integer-exact Fourier-Motzkin: equalities are removed by
    substitution (using Pugh's symmetric-modulo trick when no unit
    coefficient is available), and inequality elimination distinguishes
    the real shadow from the dark shadow, enumerating splinters when they
    differ.  Because existential integer quantification does not preserve
    conjunctive form, projections return a {e disjunction} of systems.

    {2 Resource bounds}

    Exact elimination is worst-case super-exponential, so every entry
    point runs under an {!Inl_diag.Budget.t} — work items per projection,
    a coefficient bit-size cap, and a per-analysis projection count.
    Exhaustion (or an injected {!Inl_diag.Faults} failure) raises
    {!Blowup}; the dependence analyzer catches it and degrades to
    conservative approximate dependences instead of crashing. *)

module Budget = Inl_diag.Budget

exception Blowup of string
(** Raised when a projection exceeds its resource budget (the message
    names the exhausted resource) or a fault is injected. *)

val set_default_budget : Budget.t -> unit
val get_default_budget : unit -> Budget.t
(** The budget used when callers do not pass [?budget] or [?ctx]; the CLI
    sets it from [--budget] / [INL_FM_BUDGET]. *)

type ctx
(** Per-analysis solver state: the effective budget, the projection
    counter it meters (no longer a process global — a forgotten reset
    cannot leak consumption into the next run).  A [ctx] is safe to share
    across worker domains: the counter is atomic. *)

val new_analysis : ?budget:Budget.t -> unit -> ctx
(** Fresh per-analysis state (budget defaults to the process default);
    also resets the fault-injection counters so injected failures are
    deterministic per run.  Entry points called without [?ctx] run on an
    ephemeral context, so no global protocol exists to forget. *)

val satisfiable : ?ctx:ctx -> ?budget:Budget.t -> System.t -> bool

val project :
  ?ctx:ctx -> ?budget:Budget.t -> System.t -> keep:(string -> bool) -> System.t list
(** [project sys ~keep] is a list of systems, mentioning only variables
    satisfying [keep], whose union of solution sets equals the projection
    of [sys]'s solutions.  The empty list means unsatisfiable.  The input
    is canonicalized ({!System.canonicalize}) before elimination in both
    the cached and uncached paths, so memoized results are bit-identical
    to recomputation.  Wildcard names are scoped to the projection
    (deterministic and reentrant).  [?budget] overrides the [?ctx]
    budget when both are given.
    @raise Blowup on budget exhaustion or injected fault. *)

val implied_interval : ?ctx:ctx -> ?budget:Budget.t -> System.t -> string -> Interval.t
(** Tightest integer interval containing the values of the variable over
    all solutions of the system (the hull across disjuncts); an empty
    interval when the system is unsatisfiable. *)

val implies : ?ctx:ctx -> ?budget:Budget.t -> System.t -> Constr.t -> bool
(** [implies sys c]: every integer solution of [sys] satisfies [c]. *)

(** {2 Shared query cache and counters}

    One process-wide {!Cache.t} keyed on canonical systems, so entries
    stay valid across analyses; registered with {!Inl_diag.Memo} as
    ["projection cache"], so [--no-cache] switches it off with the other
    memos.  Fault injection ({!Inl_diag.Faults}) bypasses it entirely —
    injected failures fire on their exact schedule regardless of what is
    cached. *)

val cache_stats : unit -> Cache.stats
val clear_cache : unit -> unit

val cache_snapshot : unit -> string
(** {!Cache.export} of the process-wide projection cache — the payload
    the serve daemon checkpoints so the BENCH_solver 3x warm-cache win
    survives a restart. *)

val cache_restore : string -> (int, string) result
(** {!Cache.import} into the process-wide cache; [Ok n] is the number of
    entries restored. *)

val solver_calls : unit -> int * int
(** Cumulative [(satisfiable, project)] entry-point call counts since
    start or {!reset_solver_calls} ([satisfiable] calls also count as
    [project] calls — satisfiability is projection onto no variables). *)

val reset_solver_calls : unit -> unit

val fresh_var : unit -> string
(** Fresh auxiliary variable name (reserved ["$w%d"] namespace) from the
    process-global atomic counter; reset by {!reset_fresh_names}.
    Projections use their own scoped counter and never consume from this
    one. *)

val reset_fresh_names : unit -> unit
(** Restart {!fresh_var} numbering; call only between analyses (names
    must stay unique within one). *)

val is_wildcard : string -> bool
(** Does the name live in the reserved wildcard namespace?  True also
    for renamed copies (["$w3!2"]), which remain existential. *)
