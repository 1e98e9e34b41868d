(** Arbitrary-precision signed integers.

    The sealed build environment provides no [zarith], yet exact integer
    arithmetic is load-bearing for this reproduction: Fourier-Motzkin
    elimination multiplies inequality coefficients pairwise, so native
    integers can overflow even on modest dependence systems.  This module
    implements sign-magnitude bignums on base-2^31 limbs (limb products fit
    comfortably in OCaml's 63-bit native ints).

    Values are immutable and canonical: the zero value has an empty limb
    array, and no value carries leading zero limbs, so structural equality
    coincides with numeric equality. *)

type t

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** [to_int x] is the native-int value of [x].
    @raise Failure if [x] does not fit in a native int. *)

val to_int_opt : t -> int option
val fits_int : t -> bool

val of_string : string -> t
(** Parses an optionally [-]-prefixed decimal numeral.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t

(** Bit length of the magnitude; [num_bits zero = 0].  Used by the
    resource-bounded elimination engine to cap coefficient growth. *)
val num_bits : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] having the sign of [a] (or zero).
    @raise Division_by_zero if [b] is zero. *)

val fdiv : t -> t -> t
(** Floor division: largest [q] with [q*b <= a] (for [b > 0]). *)

val cdiv : t -> t -> t
(** Ceiling division: smallest [q] with [q*b >= a] (for [b > 0]). *)

val fmod : t -> t -> t
(** [fmod a b = a - (fdiv a b) * b]; for [b > 0] the result is in
    [0, b-1]. *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val lcm : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val is_positive : t -> bool

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. @raise Invalid_argument on negative [n]. *)

val pp : Format.formatter -> t -> unit

(* Infix operators, intended for local [open Mpz.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
