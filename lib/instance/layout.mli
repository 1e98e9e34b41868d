(** Instance-vector layout of a program (Section 2).

    The layout fixes, once per program, the meaning of every coordinate of
    the instance vectors: each position is either a loop node or an edge
    label, in the order of the paper's collection function [R]
    (Equation 1): a node contributes its own label, then the labels of the
    edges to its children in {e right-to-left} order (omitted entirely for
    single-child nodes — the single-edge optimization of Section 2.2),
    then the blocks of its children, again right-to-left.

    Every statement's instance vectors are an affine function of its
    iteration vector: [iv = A_S . i + b_S], where [A_S] is a 0/1 matrix
    (with rows for padded positions realizing the paper's diagonal
    embedding) and [b_S] holds the 0/1 edge labels.  This affine view is
    what makes per-statement transformations computable (Section 5.4). *)

module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast

type pos_kind =
  | Ploop of Ast.path * string  (** loop node at path, with its variable *)
  | Pedge of Ast.path * int  (** edge from node at path to its [i]-th child *)

type padding = Diagonal | Zero
(** How off-path loop positions are labeled by procedure [M]: [Diagonal]
    is the paper's choice (nearest labeled ancestor); [Zero] is the
    alternative embedding mentioned at the end of Section 2.1 (kept for
    the ablation study). *)

type stmt_info = {
  label : string;
  path : Ast.path;
  stmt : Ast.stmt;
  loops : (Ast.path * Ast.loop) list;  (** enclosing loops, outermost first *)
  embedding : Mat.t * Vec.t;  (** [A_S], [b_S] *)
  loop_pos : int list;  (** positions of the statement's own loops, outer-in *)
  padded_pos : int list;  (** padded positions (Definition 4) *)
}

type t = {
  program : Ast.program;
  padding : padding;
  positions : pos_kind array;
  stmts : stmt_info list;  (** in syntactic order *)
}

val node_size : Ast.node -> int
(** The number of positions a node's subtree contributes under [R]
    (Equation 1): [0] for a statement; for a loop, its own label plus its
    children region.  This module owns that geometry: {!Blockstruct},
    the completion search and the distribution/jamming matrices all read
    it from here.  @raise Invalid_argument on [If]/[Let] nodes. *)

val children_region : base:int -> int array -> int array
(** [children_region ~base sizes]: where the children's blocks start in
    the region of a node's children that begins at position [base], given
    each child's block size ([sizes.(i)] = [node_size] of child [i]).
    The region holds the edge labels first (right-to-left, only when
    there are at least two children), then the blocks right-to-left, so
    child [m-1]'s block comes first.  Indexed by child.  Taking the sizes
    rather than the children lets a caller place a permuted child list
    without sizing its subtrees again. *)

val is_prefix : Ast.path -> Ast.path -> bool
(** [is_prefix p q]: the node at [p] is [q] or one of its ancestors. *)

val is_proper_prefix : Ast.path -> Ast.path -> bool
(** [is_proper_prefix p q]: the node at [p] is a strict ancestor of [q]. *)

val of_program : ?padding:padding -> Ast.program -> t
(** @raise Invalid_argument on programs containing [If] nodes (layouts are
    defined for source programs). *)

val size : t -> int
val stmt_info : t -> string -> stmt_info
(** Look up by statement label. @raise Not_found *)

val position_of_loop : t -> Ast.path -> int
(** @raise Not_found if the path is not a loop node. *)

val loop_positions : t -> int list
(** All loop positions, in layout order. *)

val instance_vector : t -> string -> int array -> Vec.t
(** [instance_vector layout label iters] is [L] applied to the dynamic
    instance of the labeled statement at the given loop values
    (outer-in). *)

val common_loops : t -> stmt_info -> stmt_info -> (Ast.path * Ast.loop) list
(** Loops enclosing both statements, outermost first. *)

val common_loop_positions : t -> stmt_info -> stmt_info -> int list

val l_inverse : t -> Vec.t -> (string * int array) option
(** [L^-1] (Definition 5): recover the statement and its loop values from
    an instance vector; [None] if the edge labels do not describe a
    root-to-statement path. *)

val pp_positions : Format.formatter -> t -> unit
