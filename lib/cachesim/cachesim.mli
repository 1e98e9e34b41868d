(** A set-associative, write-allocate, LRU cache simulator.

    Stands in for 1996-era memory hierarchies in reproducing the paper's
    motivating claim (Section 1) that the loop orders of Cholesky
    factorization, while computing the same result, differ substantially
    in performance.  Replaying the interpreter's memory trace through
    this model gives architecture-generic miss counts. *)

type config = {
  line_bytes : int;  (** bytes per cache line (power of two) *)
  sets : int;  (** number of sets (power of two) *)
  assoc : int;  (** ways per set *)
}

val direct_mapped : capacity_bytes:int -> line_bytes:int -> config
val set_associative : capacity_bytes:int -> line_bytes:int -> assoc:int -> config

type t

val create : config -> t
val capacity_bytes : config -> int

val line_bytes : config -> int
val sets : config -> int
val assoc : config -> int
(** Field accessors, so reports and banners print the configuration they
    actually simulate instead of restating literals. *)

val elem_bytes : int
(** Bytes per array element in {!Address_map}'s layout (8). *)

val access : t -> int -> bool
(** [access cache byte_address] touches one address and reports a hit. *)

type stats = { accesses : int; hits : int; misses : int }

val stats : t -> stats
val miss_rate : stats -> float
val reset : t -> unit

(** Mapping array cells to flat byte addresses: arrays get disjoint
    base addresses in declaration order, row-major layout, 8-byte
    elements.  Subscript ranges are given per array ([dims] lists the
    inclusive upper bound of each dimension; subscripts are assumed
    non-negative). *)
module Address_map : sig
  type map

  val create : (string * int list) list -> map
  val address : map -> string -> int array -> int
  (** @raise Invalid_argument for unknown arrays or out-of-range cells. *)
end

val simulate_program :
  config ->
  (string * int list) list ->
  ?max_steps:int ->
  Inl_ir.Ast.program ->
  params:(string * int) list ->
  stats
(** Replays the program's access trace ({!Inl_interp.Interp.trace}:
    only subscripts are evaluated) through a fresh cache.  With
    [max_steps] the trace is bounded and raises
    {!Inl_interp.Interp.Step_limit} past the allowance — the search's
    trace tier uses this to stay responsive on pathological
    candidates. *)

val simulate_program_by_array :
  config ->
  (string * int list) list ->
  ?max_steps:int ->
  Inl_ir.Ast.program ->
  params:(string * int) list ->
  (string * stats) list * stats
(** Like {!simulate_program}, but additionally attributes hits and
    misses to the array each access touched (one shared cache, so the
    arrays contend for lines exactly as in the aggregate run; the
    per-array list follows the declaration order of [arrays], arrays
    never touched report zero accesses).  This is the ground truth the
    static reuse classification of {!Inl_reuse} is cross-checked
    against: a reference classified temporal or spatial innermost must
    show a lower miss rate than a streaming one of the same extent. *)
