(** Conjunctions of affine constraints over integer variables — the
    dependence systems of Section 3 (Equations 2-3) and the iteration-space
    polyhedra scanned during code generation (Section 5.5). *)

module Mpz = Inl_num.Mpz

type t = Constr.t list

val empty : t
val of_list : Constr.t list -> t
val add : Constr.t -> t -> t
val append : t -> t -> t
val vars : t -> string list
(** Sorted, without duplicates. *)

val subst : t -> string -> Linexpr.t -> t
val rename : (string -> string) -> t -> t

val normalize : t -> t option
(** Gcd-tightens every constraint, drops tautologies, deduplicates;
    [None] when some constraint is unsatisfiable on its face. *)

val canonicalize : t -> t option
(** Canonical form used as a memoization key: gcd-tightened,
    constant-folded, deduplicated, sorted by {!Constr.compare} (an alias
    of {!normalize}, named for intent).  Two satisfiability-relevant
    identical systems canonicalize to structurally equal values, so
    {!equal}/{!hash} on the result are sound cache keys.  [None] when
    some constraint is unsatisfiable on its face. *)

val equal : t -> t -> bool
(** Structural equality (constraint-list equality; compare canonical
    forms for semantic keying). *)

val hash : t -> int
(** Structural hash, consistent with {!equal}. *)

val holds : t -> (string -> Mpz.t) -> bool

val split_on : t -> string -> Constr.t list * Constr.t list * t
(** [split_on sys v] is [(eqs, ges, rest)]: equalities mentioning [v],
    inequalities mentioning [v], and constraints not mentioning [v]. *)

val solutions_in_box : t -> (string * int * int) list -> int list list
(** Brute-force enumeration of all integer solutions when every variable
    of the system appears in the box; the order of each solution tuple
    follows the box.  Test oracle only — exponential.
    @raise Invalid_argument if a system variable is missing from the box. *)

val pp : Format.formatter -> t -> unit
