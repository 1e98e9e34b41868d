(** Legality-guided transformation autotuning (the closing of the
    paper's loop: Section 1 motivates loop orders by locality, Section 6
    derives them — this module searches for them automatically).

    A deterministic seeded beam search over the matrix-encoded
    transformation space.  States are {!Inl_fuzz.Tf} recipes — replayable
    by construction — materialized against the analyzed program;
    generation 0 holds the identity and the completion-derived seeds
    (one per signed loop column, via {!Inl.Completion.seed_rows}), and
    each later generation extends every beam survivor by one bounded
    move from {!Moves.enumerate}.  Evaluation is incremental end-to-end:
    step recipes materialize through a process-wide prefix memo (one
    composition step per candidate), and candidates are pruned by the
    exact legality test (Definition 6) run in delta mode
    ({!Inl.Legality.check_env}) — verdicts whose inputs the move left
    unchanged are inherited from the parent state, the rest resolve
    through a shared per-search {!Inl.Legality.cache} backed by the
    process-wide verdict memo.  An illegal candidate is dropped and
    never extended, cutting its whole subtree.

    Survivors are ranked by the static tier
    ({!Inl_reuse.Reuse.weighted_score}, the depth-weighted
    reuse-vocabulary score — candidates in the same signature
    equivalence class are scored once through a process-wide memo); the
    top [finalists] are code-generated and scored by the
    {!Inl_cachesim} trace tier at a configurable problem size, with one
    simulation per finalist signature class (the others inherit the
    representative's miss counts).  The winner is gated through
    {!Inl_verify} translation validation before being reported.

    Determinism: per-generation candidate evaluation fans out over
    {!Inl_parallel.Pool} with input-order collection, ranking ties break
    on the recipe text, code generation runs on the calling domain, and
    no wall-clock feeds any decision — the outcome is byte-identical
    across [--jobs] values for a fixed seed.  The search is
    budget/watchdog-aware: {!Inl_diag.Watchdog.poll} runs between
    generations and finalists, and a {!Inl_presburger.Omega.Blowup}
    during a finalist's code generation degrades that candidate to its
    static-tier score (warning [S901]) instead of aborting. *)

module Tf = Inl_fuzz.Tf
module Diag = Inl_diag.Diag
module Cachesim = Inl_cachesim.Cachesim
module Ast = Inl_ir.Ast

type config = {
  beam : int;  (** beam width (default 8) *)
  depth : int;  (** move generations after the seeds (default 3) *)
  finalists : int;  (** candidates promoted to the trace tier (default 6) *)
  size : int;  (** problem size: every parameter is bound to this for simulation (default 48) *)
  seed : int;
      (** deterministic subsampling seed, used only when a state's move
          list exceeds [max_moves] *)
  max_moves : int;  (** per-state move cap (default 64) *)
  cache : Cachesim.config;  (** trace-tier cache (default 8 KiB, 2-way, 64B lines) *)
  sim_max_steps : int;  (** interpreter step bound per simulation (default 4_000_000) *)
}

val default_config : config

val config_for : ?base:config -> Inl.context -> config
(** [base] (default {!default_config}) widened for the kernel at hand:
    programs with at least 8 layout columns (loops + statements) get
    [beam = 12] and [depth = 4] — incremental evaluation made candidates
    cheap enough to spend the reclaimed time on coverage where the
    search space is big enough to need it.  The CLI uses this when
    [--beam]/[--depth] are not given explicitly. *)

type entry = {
  rank : int;  (** 1-based, in final ranking order *)
  recipe : Tf.t;
  static_score : float;
  misses : int option;  (** trace tier; [None] when not simulated or degraded *)
  accesses : int option;
  program : Ast.program option;  (** generated code; [None] when codegen degraded *)
}

type funnel = {
  generated : int;  (** candidate recipes materialization was attempted for *)
  materialize_failed : int;
  duplicate : int;  (** distinct recipes reaching an already-seen matrix *)
  illegal : int;  (** pruned by the legality test *)
  scored : int;  (** legal, statically scored *)
  reuse_classes : int;
      (** distinct reuse-signature equivalence classes among the scored
          candidates ({!Inl_reuse}) *)
  reuse_pruned : int;
      (** scored candidates whose signature class had already been seen —
          their static score was a memo lookup, not a recomputation *)
  simulated : int;  (** simulations actually run (one per finalist class) *)
  sim_shared : int;
      (** finalists that inherited a class representative's miss counts
          instead of being simulated themselves *)
  sim_skipped : int;
      (** class representatives whose simulation was skipped
          (out-of-range access or step limit — warning [S903]) *)
}

type outcome = {
  entries : entry list;  (** the finalists in final ranking order *)
  winner : entry option;  (** the first finalist that passed the {!Inl_verify} gate *)
  winner_doall : int option;
      (** number of provably parallel loops in the winner's generated
          code, read off the winner's own verification report ([None]
          when there is no winner) — the parallelizability the execution
          runtime ({!Inl_exec}) will find *)
  source_misses : int option;  (** trace-tier score of the untransformed program *)
  source_accesses : int option;
  diags : Diag.t list;
      (** warnings: [S901] codegen degraded, [S902] a finalist failed
          translation validation, [S903] simulation skipped, [S904]
          static scoring degraded (singular per-statement
          transformations charged pessimistically, once per run); plus
          the winner's verification warnings.  Errors: [S801] no legal
          candidate survived. *)
  funnel : funnel;
}

val optimize : ?config:config -> Inl.context -> outcome
(** Never raises on candidate-level failure; every degradation is a
    typed diagnostic in [diags].  Also feeds the funnel counters into
    {!Inl_diag.Stats} ([search.*]) for [--stats]. *)

val recipe_line : Tf.t -> string
(** One-line human rendering of a recipe, e.g.
    ["interchange J,I2; reverse K"] or ["complete row=[0,0,0,1,0,0,0]"];
    ["identity"] for the empty recipe. *)

(** {2 Process-wide memos}

    Five named {!Inl_diag.Memo} tables: ["pipe memo"] (step-prefix
    materialization), ["complete memo"] (completion results), ["sig
    memo"] (signature front tier), ["sim memo"] (simulation results) and
    ["arrays memo"] (measured extents).  Each computes bit-identical
    values either way, so [--no-cache] ({!Inl_diag.Memo.set_all_enabled})
    changes no output. *)

val clear_process_memos : unit -> unit
(** Forget the five search memos. *)

module Key : sig
  type prog_id

  val prog_id : string -> prog_id
  (** A program's identity in the keys: its printed text, hashed once. *)

  type t = { k_prog : prog_id; k_steps : (string * string) list; k_rows : int array array }

  include Hashtbl.HashedType with type t := t
end
(** The structural key of the pipe memo (program, step prefix), the
    completion memo (program with its dependence set, partial rows), the
    signature memo and the duplicate filter (program, candidate matrix). *)

val trace_cache_stats : unit -> Inl_diag.Memo.stats
(** Counters of the simulation memo. *)

val mat_cache_stats : unit -> Inl_diag.Memo.stats
(** Counters of the step-prefix pipeline memo. *)

val completion_cache_stats : unit -> Inl_diag.Memo.stats
(** Counters of the completion-result memo. *)
