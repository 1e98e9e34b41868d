(** Abstract syntax for imperfectly nested loop programs (Section 2).

    Internal nodes are loops, leaves are atomic assignment statements;
    the left-to-right order of children is sequential execution order.
    Source programs use unit steps, singleton bounds and no guards; code
    generation (Section 5) additionally produces strided loops, covering
    (union) bounds, guarded bodies and exact-quotient [Let] bindings.

    {2 Invariants}

    A well-formed program (checked by {!validate}) satisfies:

    - statement labels are globally unique;
    - every variable mentioned by a bound, guard, subscript or
      right-hand side is an enclosing loop variable, an enclosing
      [Let]-bound variable, or a program parameter;
    - loop variables and [Let]-bound variables shadow neither an
      enclosing binder nor a parameter;
    - loop steps are [>= 1], bound and [Let] denominators are [>= 1],
      guard divisors are [>= 1], and every loop has at least one lower
      and one upper bound term.

    Semantic invariants {e not} enforced here, but relied on by the
    interpreter and checked by the static verifier ({!Inl_verify}):
    a [Let] with denominator [d > 1] must be reached only when [d]
    divides its numerator (code generation emits a [Gdiv] guard), and a
    covering bound (combiner opposite to the natural one) must be
    compensated by per-statement guards. *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr

type affine = Linexpr.t

type bterm = { num : affine; den : Mpz.t }
(** One term of a loop bound: [num/den] with [den >= 1].  A lower bound
    rounds up, an upper bound rounds down; source programs always have
    [den = 1]. *)

type bound = { combine : [ `Max | `Min ]; terms : bterm list }
(** A loop bound combines its terms with max or min.  Source programs
    use the natural combiners (a lower bound is a max, an upper bound a
    min); code generation may emit the opposite combiner for a loop
    shared by several statements, whose range must cover the union of
    the statements' ranges (spurious iterations are discarded by
    per-statement guards). *)

type aref = { array : string; index : affine list }

type binop = Add | Sub | Mul | Div

type expr =
  | Eref of aref
  | Econst of float
  | Evar of string  (** loop variable, [Let]-bound variable or parameter *)
  | Ebin of binop * expr * expr
  | Ecall of string * expr list  (** intrinsic or uninterpreted function *)

type stmt = { label : string; lhs : aref; rhs : expr }

type guard =
  | Gcmp of [ `Ge | `Eq ] * affine  (** [e >= 0] or [e = 0] *)
  | Gdiv of Mpz.t * affine  (** [den] divides [e] *)

type node =
  | Loop of loop
  | If of guard list * node list  (** conjunction of guards *)
  | Let of string * bterm * node list
      (** [Let (v, e/d, body)]: bind [v] to the exact quotient [e/d]
          (the enclosing guards guarantee divisibility); produced by
          code generation to reconstruct original iterators *)
  | Stmt of stmt

and loop = {
  var : string;
  lower : bound;
  upper : bound;
  step : Mpz.t;  (** [>= 1] *)
  body : node list;
}

type program = { params : string list; nest : node list }

type path = int list
(** A path identifies a node: the sequence of child indices from the
    root of the forest.  [[]] is the (virtual) root. *)

val is_prefix : path -> path -> bool
(** [is_prefix p q]: the node at [p] is [q] or one of its ancestors. *)

val is_proper_prefix : path -> path -> bool
(** [is_proper_prefix p q]: the node at [p] is a strict ancestor of [q]. *)

(** {2 Construction helpers} *)

val bterm : affine -> bterm
(** Integral term ([den = 1]). *)

val bterm_int : int -> bterm
val bterm_var : string -> bterm

val lower_bound : bterm list -> bound
(** Natural lower bound (max combiner). *)

val upper_bound : bterm list -> bound
(** Natural upper bound (min combiner). *)

val simple_loop : string -> bterm -> bterm -> node list -> node
(** Unit-step loop with singleton natural bounds. *)

(** {2 Traversal} *)

val node_at_exn : node list -> path -> node
(** @raise Invalid_argument on the empty path or a path through a
    statement. *)

val stmts_with_paths : program -> (path * stmt) list
(** All statements with their paths, in syntactic (depth-first,
    left-to-right) order. *)

val find_stmt_exn : program -> string -> path * stmt
(** Look up a statement by label.
    @raise Invalid_argument when no statement carries the label. *)

val loops_enclosing : program -> path -> (path * loop) list
(** Loops strictly enclosing the node at the given path, outermost
    first. *)

val syntactic_compare : path -> path -> int
(** Syntactic order of Definition 1: depth-first positions compare as
    the paths do lexicographically. *)

val expr_arrays : string list -> expr -> string list
(** Array names referenced by an expression, prepended to the
    accumulator. *)

val arrays : program -> string list
(** All arrays read or written, sorted without duplicates. *)

val loop_vars : program -> string list
(** Loop variables bound anywhere in the program, sorted without
    duplicates. *)

(** {2 Validation} *)

exception Invalid of string

val validate : program -> unit
(** Checks the well-formedness invariants listed above.
    @raise Invalid with a human-readable description of the first
    violation. *)

val is_perfect : program -> bool
(** True when the nest is a single chain of loops with all statements at
    the innermost level (Section 1's "perfectly nested"). *)

(** {2 Variable renaming (used by loop fusion)} *)

val rename_var_expr : string -> string -> expr -> expr

val rename_affine_var : string -> string -> affine -> affine

val rename_var_node : string -> string -> node -> node
(** Rename free occurrences of the first variable to the second; binders
    of the first variable shadow (their subtrees are left alone). *)
