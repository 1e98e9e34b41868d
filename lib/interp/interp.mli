(** An interpreter for loop-nest programs — the execution substrate of
    this reproduction (standing in for the paper's Polaris test-bed).

    Three roles, one runner.  The interpreter is the
    {e semantic-equivalence oracle} for code generation (run the source and the
    transformed program on the same inputs and compare final stores —
    legal transformations preserve them exactly, since each array cell
    sees the same sequence of operations with the same operands), the
    {e memory-trace source} for the cache simulator and the extent
    measurements of the search and the C emitter, and the {e worker
    evaluator} of the parallel execution runtime ({!Inl_exec}).

    All three stage the program once per [(program, params)] into one
    runner: loop variables and [Let] quotients get fixed native-int
    slots, parameters fold into constants, and every bound, guard,
    subscript and [Let] numerator becomes a native-int affine form.  A
    run is two passes of that runner: a subscript-only pass that sizes
    the dense store — a row-major box per array in one [float array] —
    and enforces [max_steps], then the evaluating pass against it.  The
    public {!store} is built once, at the end.

    {b Native range.}  Building the runner refuses (with
    [Invalid_argument]) coefficients, denominators, divisors and steps
    above 2{^20} in magnitude and constants above 2{^58}; entering a loop
    or a [Let] refuses values above 2{^30}; the dense store is capped at
    2{^24} cells.  Within these limits every affine sum is exact — a
    value outside them is refused, never wrapped.  Unbound variables are
    refused when the runner is built, even in code no instance reaches.

    Uninterpreted function calls (the paper's [f()]) evaluate to a
    deterministic hash of the call name and argument values, so
    equivalence checking remains exact in their presence. *)

module Ast = Inl_ir.Ast

type cell = string * int list

type store = (cell, float) Hashtbl.t

type kind = [ `Read | `Write ]

val default_init : string -> int list -> float
(** Deterministic pseudo-random initial array contents. *)

exception Step_limit of int
(** Raised by a bounded execution that exceeded its step allowance. *)

type fan_out = {
  loop : Ast.path;  (** the DOALL loop, by {!Inl_verify.Doall}'s path convention *)
  chunks : int;  (** each entry's range splits into at most this many contiguous chunks *)
  run_tasks : (unit -> unit) list -> unit;
      (** runs one task per chunk, in any order or concurrently (e.g.
          over a domain pool), and returns when all have finished *)
}
(** How {!run} may execute one loop in parallel.  Each chunk has its own
    worker state and writes the one dense store in place; sound when no
    two iterations of the loop touch a cell that either of them writes
    (the DOALL condition).  A cell a worker first reads takes [init] —
    the same value whichever worker reads it. *)

val run :
  ?init:(string -> int list -> float) ->
  ?max_steps:int ->
  ?fan_out:fan_out ->
  Ast.program ->
  params:(string * int) list ->
  store
(** Executes the program.  Reads of never-written cells come from [init]
    (and are recorded in the store so both sides of an equivalence check
    observe them identically).  With [max_steps] the execution is
    bounded: each statement instance and each loop-iteration entry costs
    one step, and exceeding the allowance raises {!Step_limit} — the
    fuzzing oracle relies on this to never hang on generated code.  The
    count is taken in sequential order, so a [fan_out] run raises
    exactly when the sequential one does; [fan_out] never changes the
    result.
    @raise Invalid_argument on unbound variables, values outside the
    native range or non-exact [Let] divisions. *)

val trace :
  ?max_steps:int -> (string -> int array -> kind -> unit) -> Ast.program -> params:(string * int) list -> unit
(** [trace hook prog ~params] calls [hook array index kind] for every
    array access in execution order: the reads of a statement's
    right-hand side left to right, then its write.  Only subscripts are
    evaluated.  [index] is a buffer the runner reuses — copy it to keep
    it.  Raises as {!run} does. *)

val extents :
  ?max_steps:int -> Ast.program -> params:(string * int) list -> (string * int array * int array) list
(** [(array, lo, hi)] per array (and subscript count) the program
    touches: the per-dimension least and greatest subscripts over all of
    its accesses, sorted by name — the sizing pass of {!run} on its
    own.  Raises as {!run} does. *)

val stores_equal : store -> store -> bool

val store_diff : store -> store -> (unit, string) result
(** Cell-by-cell comparison; [Error] names the first differing cell
    (the "first"/"second" wording refers to argument order). *)

val equivalent :
  ?max_steps:int ->
  Ast.program -> Ast.program -> params:(string * int) list -> (unit, string) result
(** Runs both programs from the same initial contents and compares the
    final stores cell by cell; [Error] carries a diagnostic naming the
    first differing cell. *)

val operation_count : Ast.program -> params:(string * int) list -> int
(** Number of statement instances executed.  Only control flow runs.
    @raise Invalid_argument as {!run} does for bounds, guards and [Let]s. *)
