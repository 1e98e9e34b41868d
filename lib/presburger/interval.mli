(** Integer intervals with infinite endpoints.

    These play two roles: the result type of variable-bound queries on
    constraint systems, and the entries of dependence distance/direction
    vectors — a strict generalization of the classical
    [{d, +, -, *}] abstraction: [d] is [[d,d]], [+] is [[1,oo)], [-] is
    [(-oo,-1]] and [*] is [(-oo,oo)]. *)

module Mpz = Inl_num.Mpz

type bound = NegInf | Fin of Mpz.t | PosInf
type t = { lo : bound; hi : bound }

val make : bound -> bound -> t
val point : Mpz.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
val top : t
(** [(-oo, oo)] — the [*] direction. *)

val plus : t
(** [[1, oo)] — the [+] direction. *)

val minus : t
(** [(-oo, -1]] — the [-] direction. *)

val zero : t
val is_empty : t -> bool
val is_point : t -> Mpz.t option
val contains : t -> Mpz.t -> bool

val definitely_positive : t -> bool
(** Every element is [>= 1]. *)

val definitely_negative : t -> bool
val definitely_zero : t -> bool
val definitely_nonneg : t -> bool

val add : t -> t -> t
val neg : t -> t
val scale : Mpz.t -> t -> t
(** Multiplication by an exact integer constant; scaling by zero yields
    the point interval [0]. *)

val hull : t -> t -> t
val inter : t -> t -> t
val equal : t -> t -> bool

val to_symbol : t -> string
(** Renders in the paper's notation when possible: a constant, ["+"],
    ["-"], ["*"], ["+0"] (nonnegative), ["-0"] (nonpositive) or
    ["[l,h]"]. *)

val pp : Format.formatter -> t -> unit

val bound_compare_lo : bound -> bound -> int
val bound_compare_hi : bound -> bound -> int
