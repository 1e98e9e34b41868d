(** Dense matrices over {!Inl_num.Mpz} — the representation of loop
    transformations in the paper's framework (Section 4).

    Matrices are arrays of row vectors.  All operations are exact. *)

type t = Vec.t array

val make : int -> int -> t
(** [make r c] is the [r x c] zero matrix. *)

val of_int_lists : int list list -> t
val to_int_lists : t -> int list list
val identity : int -> t
val rows : t -> int
val cols : t -> int
val copy : t -> t
val get : t -> int -> int -> Inl_num.Mpz.t
val set : t -> int -> int -> Inl_num.Mpz.t -> unit
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val transpose : t -> t
val add : t -> t -> t
val mul : t -> t -> t
val apply : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val equal : t -> t -> bool
val append_row : t -> Vec.t -> t
val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

val is_permutation : t -> bool
(** Exactly one [1] in each row and column, zeros elsewhere. *)

val permutation_of_list : int list -> t
(** [permutation_of_list p] maps position [i] (old) to position [p_i] (new):
    the matrix [M] with [M.(p_i).(i) = 1], so [apply M v] places [v.(i)] at
    index [p_i]. *)

val swap_rows_matrix : int -> int -> int -> t
(** [swap_rows_matrix n i j] is the [n x n] identity with rows [i],[j]
    swapped — the paper's loop-permutation matrix for interchanging two
    loops. *)

val pp : Format.formatter -> t -> unit
