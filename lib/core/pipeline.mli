(** Multi-step transformation pipelines.

    Sequences of transformations compose by matrix product (the paper's
    central algebraic property), but each step's {e builder} must be
    phrased against the program shape produced by the previous steps
    (statement reordering changes which positions are which).  This
    module owns that bookkeeping: it applies steps left to right,
    rebuilding the layout through {!Blockstruct} after each one, and
    returns the single composite matrix.

    It also owns the step vocabulary: the CLI's step options, recipe
    files ([Inl_fuzz.Tf]), the fuzzer's sampler and the autotuner's
    moves all carry the typed {!step}, and {!step_of_spec} /
    {!spec_of_step} are its one surface syntax. *)

module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout
module Diag = Inl_diag.Diag

type step =
  | Interchange of string * string
  | Reverse of string
  | Scale of string * int
  | Skew of { target : string; source : string; factor : int }
  | Align of { stmt : string; loop : string; amount : int }
  | Reorder of { parent : Ast.path; perm : int list }
      (** [parent] is a path in the program shape current at this step *)

val pp_step : Format.formatter -> step -> unit

val step_of_spec : kind:string -> string -> (step, string) result
(** Parse the CLI surface syntax of one step: [kind] is the option name
    ([interchange], [reverse], [scale], [skew], [align], [reorder]) and
    the string its argument, e.g. [step_of_spec ~kind:"skew" "J,I,1"] or
    [step_of_spec ~kind:"reorder" "0.1:1,0"] (path, then permutation).
    The error is a human-readable message naming the bad argument. *)

val spec_of_step : step -> string * string
(** The inverse of {!step_of_spec}: [(kind, spec)] with
    [step_of_spec ~kind spec = Ok step] — the one printer of steps,
    behind recipe files and the search's recipe lines. *)

val extend : Layout.t -> Mat.t -> step -> (Mat.t * Layout.t, Diag.t list) result
(** One composition iteration: build [step] against [layout], multiply
    it into the accumulated matrix, and advance the layout through
    {!Blockstruct}.  {!compose} is a fold of this; exposing the single
    iteration lets callers that share step prefixes (the autotuner's
    beam, which extends each parent recipe by one move) memoize prefix
    results and pay for exactly one new step per candidate while
    computing bit-identical matrices. *)

val compose : Layout.t -> step list -> (Mat.t, Diag.t list) result
(** The composite matrix over the original layout, or error diagnostics
    (code [T301]) naming the failing step — builder exceptions are caught
    and typed, never propagated. *)
