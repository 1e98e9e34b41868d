(** Textual C/OpenMP backend.

    Lowers a (possibly transformed) nest to a self-contained C99
    program: measured array extents (the interpreter's sizing pass at the
    given parameter values sizes every array, with index macros
    shifting negative origins), [ceild]/[floord]/[lmax]/[lmin] helpers
    for strided and covering bounds, guards as [if]s, exact-quotient
    [Let]s as integer divisions, and [#pragma omp parallel for] on each
    proven-DOALL loop that is not enclosed by another one.  The emitted
    [main] initializes the arrays deterministically, times the kernel
    and prints a checksum — emit-only: nothing in tier-1 compiles the
    output, so the repo carries no C-compiler dependency. *)

module Ast = Inl_ir.Ast
module Doall = Inl_verify.Doall

val emit :
  Ast.program ->
  params:(string * int) list ->
  doall:(Ast.path * string * Doall.status) list ->
  string
