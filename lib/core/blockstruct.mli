(** Block structure of transformation matrices and recovery of the
    transformed AST (Section 5.2, Figures 5-6).

    A legal transformation matrix must respect the recursive block
    structure of the instance-vector layout: at every node, the rows for
    the node's edge labels must form a permutation of that node's edge
    columns (and be zero elsewhere) — this permutation is the statement
    reordering at that node — and the rows of each child's block must be
    zero on the columns of sibling blocks (they may freely reference
    ancestor loop and edge columns, which is how skewing by an outer loop
    and statement alignment enter).

    [infer] checks the structure and returns the reordered program
    skeleton (bounds unchanged — code generation recomputes them), the
    new layout, and the old-to-new position correspondence. *)

module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout

type t = {
  matrix : Mat.t;
  old_layout : Layout.t;
  new_program : Ast.program;  (** old program with children reordered *)
  new_layout : Layout.t;
  old_to_new : int array;  (** position correspondence *)
  perms : (Ast.path * int array) list;
      (** per-node child permutation: [perm.(old_child) = new_child] *)
}

val infer : Layout.t -> Mat.t -> (t, string) result
(** When every child permutation is the identity (interchange, skew,
    reversal), [new_program] and [new_layout] are the old ones. *)

val map_path : t -> Ast.path -> Ast.path
(** Where a node of the old program lands in the new one. *)

val new_stmt_info : t -> string -> Layout.stmt_info
(** The transformed program's statement info for a (label-preserved)
    statement. *)
