(** The three-way differential oracle: one fuzz case, one verdict.

    For a case [(program, recipe)] the oracle compares three independent
    judgements of the same transformation: the legality test
    (Definition 6), the static translation validator
    ({!Inl_verify.Verify}, V101-V106), and the interpreter run on small
    concrete parameter bindings.  Any disagreement, crash, leaked
    {!Inl_presburger.Omega.Blowup}, or watchdog timeout is a finding with
    a triage signature; agreement (either "legal and equivalent" or
    "illegal, nothing to compare") passes. *)

module Ast = Inl_ir.Ast

type signature = Crash | Divergence | Verdict_mismatch | Timeout

val signature_to_string : signature -> string
(** ["crash" | "divergence" | "verdict-mismatch" | "timeout"] — the
    stable triage vocabulary used in corpus file names. *)

type outcome =
  | Pass of string  (** the three judges agree; the note says how *)
  | Skip of string
      (** the case is vacuous: the recipe does not materialize against
          this program (failed completion search, step/shape mismatch) or
          a resource budget degraded the comparison *)
  | Finding of { signature : signature; detail : string }

val outcome_to_string : outcome -> string

val sizes : int list
(** Parameter bindings for the interpreter leg ([N] values). *)

val run_case : ?timeout_ms:int -> Ast.program -> Tf.t -> outcome
(** Analyze, materialize, judge.  Never raises: solver blowups that leak
    past the degradation machinery, interpreter errors and any other
    exception are classified as [Crash]; the wall-clock watchdog (when
    [timeout_ms > 0]) converts a hung solver into [Timeout]. *)
