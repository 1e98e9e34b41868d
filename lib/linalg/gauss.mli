(** Exact Gaussian elimination over the rationals.

    Supplies the linear-algebra queries the framework needs: the rank of a
    per-statement transformation (Section 5.4), inverses of non-singular
    per-statement transformations (Theorem 5 / Lemma 3), nullspace bases
    used both by the completion procedures and by the "parallel outermost
    loop" query of Section 7, and the expression of a singular row as a
    combination of preceding independent rows (Section 5.5). *)

module Q = Inl_num.Q

type qmat = Q.t array array

val of_mat : Mat.t -> qmat
val rank : Mat.t -> int

val inverse : Mat.t -> qmat option
(** [None] when the matrix is singular or not square. *)

val is_nonsingular : Mat.t -> bool
val is_unimodular : Mat.t -> bool
(** Square, integer, determinant +-1. *)

val determinant : Mat.t -> Inl_num.Mpz.t
(** @raise Invalid_argument if not square. *)

val apply_q : qmat -> Q.t array -> Q.t array

val nullspace : Mat.t -> Vec.t list
(** A basis of integer vectors (cleared of denominators, gcd-reduced) for
    the right nullspace [{ x | M x = 0 }]. *)

val solve : Mat.t -> Vec.t -> Q.t array option
(** [solve m b] is some rational [x] with [m x = b], or [None] when the
    system is inconsistent. *)

val row_dependency : Mat.t -> int -> Q.t array option
(** [row_dependency m k] expresses row [k] as a rational combination of
    rows [0..k-1]: returns coefficients [c] with
    [row k = sum_i c_i * row i], or [None] when row [k] is independent of
    its predecessors. *)

val independent_row_indices : Mat.t -> int list
(** Indices of the rows kept by greedy top-down elimination: row [k] is
    kept iff it is not a linear combination of the kept rows above it —
    exactly the construction of the non-singular per-statement
    transformation (Definition 8). *)
