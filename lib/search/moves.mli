(** Candidate move enumeration for the transformation autotuner.

    A {e move} is one typed pipeline step ({!Inl.Pipeline.step}, the
    steps {!Inl_fuzz.Tf} records) phrased
    against the program shape reached by the recipe so far, exactly as
    {!Inl.Pipeline.compose} will re-interpret it during replay.  The
    enumeration is structural and deliberately over-approximate: a move
    that fails to materialize or is rejected by the legality test is
    pruned downstream, never silently skipped here.

    A move is a {e list} of steps appended to the recipe as one unit.
    Most moves are a single step; the wavefront composition
    (skew-the-inner-by-the-outer, then interchange) is two — the pair
    that turns a time-iterated stencil's sequential band into an inner
    DOALL dimension, which as separate generations would require the
    locally-unprofitable skew-only intermediate to survive the beam.

    Bounds: skew factors and alignment amounts are limited to [±1]
    (composition reaches larger factors across generations; wavefront
    compounds additionally try factor [2], enough to rotate the
    {(1,-1),(1,0),(1,1)} stencil cone past vertical), statement
    reorderings enumerate all child permutations only at sites with at
    most four children (adjacent transpositions above that). *)

module Ast = Inl_ir.Ast

val enumerate : Ast.program -> Inl.Pipeline.step list list
(** All bounded moves against the given program shape, in a fixed
    deterministic order: interchanges (nested loop pairs), reversals,
    skews (nested pairs, both directions, factor [±1]), alignments
    (statement × enclosing loop × [±1], only in multi-statement
    programs), statement reorderings, then the wavefront compounds
    (nested pairs × factor {1, 2}). *)

val loops_with_paths : Ast.program -> (Ast.path * Ast.loop) list
(** Every loop of the program with its path, in DFS order. *)
