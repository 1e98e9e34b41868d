(** Replayable transformation specifications.

    A fuzz case must survive three lives: the live campaign, quarantine
    on disk, and replay after shrinking — so transformations are stored
    not as raw matrices (whose dimensions die with the layout) but as the
    {e recipe} that builds them: pipeline steps ({!Inl.Pipeline.step},
    written in the CLI's [--interchange I,J] surface syntax), or partial
    first rows handed to
    the Section 6 completion procedure, optionally followed by raw matrix
    edits that deliberately break well-formedness.  Recipes re-materialize
    against whatever program they are replayed with, which is what lets
    the shrinker mutate the program underneath them. *)

module Mat = Inl_linalg.Mat

type edit =
  | Negate_row of int
  | Add_entry of { row : int; col : int; delta : int }
      (** perturbations applied to the materialized matrix — the
          "possibly-illegal" half of the sampler's output *)

type t = {
  steps : Inl.Pipeline.step list;
  partial : int list list;
      (** when non-empty: first rows for the completion procedure
          (mutually exclusive with [steps]) *)
  edits : edit list;
}

val expected_legal : t -> bool
(** Completion-produced and unedited: if this materializes at all, the
    legality test must accept it — a rejection is a finding. *)

val to_string : t -> string
(** Line-based text format, stable for corpus files; steps are printed
    by {!Inl.Pipeline.spec_of_step}. *)

val of_string : string -> (t, string) result
(** Parses every line once: a step whose argument does not parse
    ([step skew J,I,x]) is an [Error] here, not at {!materialize}. *)

val materialize : Inl.context -> t -> (Mat.t, string) result
(** Build the matrix against a concrete analyzed program.  [Error]
    covers recipe/shape mismatches and failed completion searches — a
    skip for the oracle, never a finding by itself. *)
