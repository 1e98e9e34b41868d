(** The parallel execution runtime: run DOALL schedules on real cores.

    The verify layer proves which loop levels carry no dependences
    ({!Inl_verify.Doall}); this module is what finally {e executes}
    them.  A plan designates the outermost provably-parallel loop; the
    interpreter's staged runner executes the nest and hands that loop's
    entries to the Domain pool in contiguous chunks, every chunk writing
    the one dense store in place.  The DOALL race-freedom condition makes
    this sound: no two iterations of the loop touch a cell that either of
    them writes, so the workers' writes are disjoint and a cell two
    workers both read holds the same value for both.  The result is
    deterministic for any [jobs], and {!benchmark} refuses to report
    timings unless the parallel store is byte-identical to the
    sequential interpreter's.

    Failure model (DESIGN §16): degradations and failures are typed
    [X]-codes in the {!Inl_diag.Diag.Exec} phase — [X901] no DOALL
    dimension (warning; sequential fallback), [X902] DOALL analysis
    inconclusive (warning; sequential fallback), [X903] more threads
    requested than cores (info; honesty note), [X801] parallel store
    diverged (error; timing withheld), [X802] invalid/unbound program
    or a value outside the interpreter's native range, [X803] step
    limit exceeded. *)

module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag
module Doall = Inl_verify.Doall
module Interp = Inl_interp.Interp

type doall = (Ast.path * string * Doall.status) list
(** The DOALL report, in DFS order — one entry per loop. *)

type plan =
  | Par of { path : Ast.path; var : string; depth : int }
      (** fan out at the loop with this path; [depth] counts enclosing
          loops ([0] = top level) *)
  | Seq of Diag.t option
      (** sequential; the diagnostic (when present) says why parallel
          execution was declined ([X901]/[X902]) *)

val analyze : Ast.program -> doall
(** Fresh-context DOALL analysis (deterministic across calls in one
    process). *)

val doall_count : doall -> int
(** Number of provably parallel loops. *)

val choose : doall -> plan
(** The outermost [Parallel] loop (ties broken by syntactic order), or a
    [Seq] fallback carrying the [X901]/[X902] degradation. *)

val plan_var : plan -> string option

val execute :
  ?jobs:int ->
  ?init:(string -> int list -> float) ->
  ?max_steps:int ->
  plan:plan ->
  Ast.program ->
  params:(string * int) list ->
  Interp.store
(** Runs the program under the plan and returns the final store.  With a
    [Par] plan the designated loop's range is chunked over [jobs]
    domains ([jobs] is not capped at the core count — oversubscription
    is the caller's choice); the result is deterministic and, for a
    correct DOALL verdict, byte-identical to {!Interp.run}.  It raises
    {!Interp.Step_limit} and [Invalid_argument] exactly when
    {!Interp.run} does: the step count is taken in sequential order,
    before the fan-out. *)

type report = {
  plan : plan;
  doall : doall;
  loops : int;  (** total loops in the nest *)
  jobs_requested : int;
  cores : int;  (** [Domain.recommended_domain_count ()] — the honest bound *)
  repeat : int;
  seq_ms : float;  (** min-of-[repeat] sequential wall clock *)
  par_ms : float;  (** min-of-[repeat] planned-execution wall clock *)
  cells : int;  (** store size — identical on both sides by construction *)
  notes : Diag.t list;  (** [X901]/[X902] warnings, [X903] info *)
}

val benchmark :
  ?jobs:int ->
  ?repeat:int ->
  ?init:(string -> int list -> float) ->
  ?max_steps:int ->
  Ast.program ->
  params:(string * int) list ->
  (report, Diag.t list) result
(** Times the sequential interpreter and the planned execution
    (min-of-[repeat] each, default 3) and differentially checks their
    stores.  [Error] carries [X801] on divergence — no timing is ever
    reported for a run that failed the check — or [X802]/[X803] when the
    program cannot be executed at all. *)

val label : (report, Diag.t list) result -> string
(** Stable drift-guard label, never encoding wall time:
    ["ok:doall=<var>"], ["ok:seq"], ["degraded:X901"], ["error:X801"],
    ... *)

val render : ?timings:bool -> report -> string list
(** Human-readable report lines (plan, threads/cores, differential
    verdict, both timings); [~timings:false] replaces every wall time
    and the speedup with ["-"] so the shape can be pinned in cram
    tests.  [notes] are not rendered — the caller prints them as
    diagnostics. *)
