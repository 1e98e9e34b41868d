(** The augmentation/completion procedure of Figure 7 (after Li-Pingali).

    When a per-statement transformation [T_S] is rank-deficient, several
    source instances of S map to one target instance, and code generation
    must add loops around S to enumerate them (Section 5.4).  The added
    rows must carry every self-dependence of S left unsatisfied by the
    transformation (Theorem 3): unsatisfied distances lie in the
    nullspace of [T_S], and vectors of distinct height within a
    [(k-r)]-dimensional space occupy at most [k-r] heights, so appending
    the unit vector [e_h] at each occupied height both regains rank and
    carries the dependences.

    Dependence entries here are intervals, so "height" is the first
    coordinate not definitely zero; a final verification pass re-checks
    every input vector against the augmented matrix with
    {!Legality.classify}. *)

module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Interval = Inl_presburger.Interval

type ivec = Interval.t array

exception Cannot_complete of string

val iheight : ivec -> int option
(** First coordinate not definitely zero (the paper's [Height]). *)

val augment : Mat.t -> ivec list -> Vec.t list
(** [augment t deps] returns the rows to append to [t] (in order), where
    [deps] are the unsatisfied self-dependence distances projected onto
    the statement's own loop coordinates.
    @raise Cannot_complete when no sound completion exists. *)
