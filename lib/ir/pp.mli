(** Pretty-printing of loop-nest programs in the paper's pseudo-code
    notation; {!Inl_ir.Parser} accepts everything printed for source
    programs (generated programs may additionally contain [if]/[let]
    constructs and strided loops). *)

val pp_affine : Format.formatter -> Ast.affine -> unit
val pp_aref : Format.formatter -> Ast.aref -> unit
val pp_expr : ?ctx:int -> Format.formatter -> Ast.expr -> unit
val pp_guard : Format.formatter -> Ast.guard -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_node : Format.formatter -> Ast.node -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val program_to_string : Ast.program -> string

val pp_program_annot :
  annot:(Ast.path -> string option) -> Format.formatter -> Ast.program -> unit
(** Like {!pp_program}, but calls [annot] on each loop's path and, when
    it answers [Some c], appends ["  /* c */"] to the loop header (the
    DOALL analysis uses this for ["parallel"] marks).  Comments are not
    part of the surface grammar, so annotated output does not round-trip
    through the parser. *)

val program_to_string_annot : annot:(Ast.path -> string option) -> Ast.program -> string
