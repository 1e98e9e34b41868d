(** The shared attempt scope and retry/degradation ladder.

    Three long-running surfaces — [inltool serve] per-request guarding,
    the fuzz driver's per-case watchdog, and the corpus bulk runner's
    per-kernel guarding — all follow the same shape: run the work once
    under a wall-clock deadline, a solver work budget and a fault spec;
    if that attempt times out or degrades (a solver blowup escaping the
    conservative paths), retry {e exactly once} at a sharply reduced
    budget (a solver that was grinding usually finishes fast when
    starved); if the retry also fails, hand the caller a typed,
    two-reason post-mortem instead of aborting the batch.  Any other
    exception is a panic, returned with its backtrace.  This module is
    that scope and ladder, once, so the three call sites cannot drift
    apart: the process budget ({!Budget.current}) and fault spec
    ({!Faults.current}) in force before {!run} are in force again after
    it, however the attempts ended.

    The ladder is policy-parameterised but message-agnostic: callers
    format their own diagnostics (R711/R706/R708/R707 on the serve wire,
    the pinned fuzz timeout-finding detail, K-codes in the corpus
    runner) from the structured {!outcome}. *)

type policy = {
  budget_divisor : int;  (** retry budget = max min_budget (fm/divisor) *)
  min_budget : int;
  timeout_divisor : int;  (** retry deadline = max min_timeout_ms (ms/divisor) *)
  min_timeout_ms : int;
}

val default_policy : policy
(** Serve's ladder: budget/10 floored at 1_000, deadline/4 floored at
    50 ms. *)

val reduced_budget : policy -> int -> int

val reduced_timeout : policy -> int -> int
(** [<= 0] (no deadline) stays [0]. *)

type reason =
  | Deadline of { timeout_ms : int; elapsed : float }
      (** the attempt exceeded its own [timeout_ms] deadline *)
  | Degraded of string  (** [degradable] classified an escaped exception *)

type 'a outcome =
  | Completed of 'a  (** first attempt succeeded; no ladder involvement *)
  | Recovered of { value : 'a; first : reason; fm_work : int }
      (** the reduced-budget retry (at [fm_work]) answered *)
  | Exhausted of { first : reason; second : reason; fm_work : int }
      (** both rungs failed; callers emit a typed failure record *)
  | Panicked of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** an attempt raised an exception that is neither degradable nor
          a deadline: a harness bug, not an input verdict (serve answers
          R707, the corpus runner records K707); never retried *)

val run :
  ?policy:policy ->
  ?fm_work:int ->
  ?faults:Faults.t ->
  timeout_ms:int ->
  degradable:(exn -> string option) ->
  (unit -> 'a) ->
  'a outcome
(** [run ~timeout_ms ~degradable f] drives the ladder.  Each attempt
    installs its rung's work budget ({!Budget.install}; [fm_work]
    defaults to the current process budget's) and, when given, the
    fault spec [faults] ({!Faults.install}, which also restarts the
    projection count), then calls [f] under {!Watchdog.with_timeout}
    with the rung's deadline (no deadline when [timeout_ms <= 0]).
    Installation happens per attempt so injected failures fire on the
    same schedule on both rungs.  On return — and on every exception
    that escapes — the budget and (when [faults] was given) the fault
    spec in force before the call are restored.

    An exception [e] escaping [f] is retried iff [degradable e] is
    [Some msg].  {!Sigint.Interrupted} and a {!Watchdog.Timeout}
    belonging to an {e outer} deadline are re-raised, never consumed by
    the ladder — the caller owns the interrupt and that deadline.  Any
    other exception ends the ladder as {!Panicked}. *)
