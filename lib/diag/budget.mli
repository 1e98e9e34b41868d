(** Resource budgets for the exact-ILP core.

    Exact Fourier-Motzkin with splinters is worst-case super-exponential,
    so every projection runs under a budget instead of a hard-coded
    constant.  Exhausting any dimension raises
    {!Inl_presburger.Omega.Blowup}, which the dependence analyzer turns
    into a {e conservative approximate dependence} rather than a crash. *)

type t = {
  fm_work : int;
      (** work items (disjuncts processed) per projection; the historical
          hard-coded constant was 500_000 *)
  max_coeff_bits : int;
      (** hard stop on the bit-size of any coefficient produced during
          elimination (FM multiplies coefficients pairwise) *)
  max_projections : int;  (** projections per analysis run *)
  fuel : int;  (** overall step allowance for drivers that meter phases *)
}

val default : t
(** [{ fm_work = 500_000; max_coeff_bits = 4096; max_projections = 200_000;
      fuel = max_int }] *)

val with_fm_work : t -> int -> t
(** Clamped to at least 1. *)

val install : t -> unit
(** Replaces the process default budget: the one
    {!Inl_presburger.Omega.new_analysis} uses when a caller passes no
    [?budget].  Initially {!default}. *)

val current : unit -> t
(** The process default budget. *)
