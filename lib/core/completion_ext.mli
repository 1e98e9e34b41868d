(** Distribution and fusion in the completion procedure — the extension
    the paper names as future work (Section 7).

    The search space is widened from matrices over one program to pairs
    (program {e variant}, matrix): the original program, its legal
    single-point distributions (for a single top-level loop), and its
    legal fusion (for exactly two top-level loops with matching
    headers).  Each variant carries its own layout and dependences; the
    inner search is the ordinary {!Completion}.  A [goal] predicate
    selects among legal results — which is what makes restructuring
    observable, since distribution decouples the per-statement rows that
    one shared loop forces together. *)

module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout

type restructuring = Original | Distributed of int | Fused

type variant = {
  restructuring : restructuring;
  program : Ast.program;
  layout : Layout.t;
  deps : Dep.t list;
}

val describe : restructuring -> string

val distribution_legal : Layout.t -> Dep.t list -> at:int -> (unit, Dep.t) result
(** Splitting the single top-level loop between children [at-1] and [at]
    is legal iff no dependence flows from the second group back to the
    first; the error is the first such dependence.
    @raise Invalid_argument unless the program is one top-level loop and
    [at] is strictly inside its body. *)

val fusion_legal : Layout.t -> bool
(** Fusing two adjacent top-level loops with matching headers is legal
    iff no conflicting access pair would be reordered (the second loop's
    instance at a strictly earlier outer iteration than the first's). *)

val variants : Layout.t -> Dep.t list -> variant list
(** The original program plus every legal restructuring, each analyzed. *)

val complete_with_restructuring :
  ?options:Completion.options ->
  Layout.t ->
  Dep.t list ->
  goal:(variant -> Mat.t -> bool) ->
  (variant * Mat.t) option
