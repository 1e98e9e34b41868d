(* Distribution and fusion in the completion procedure — the extension the
   paper names as future work (Section 7: "We would like to extend this
   work to incorporate loop distribution and loop fusion into the
   completion procedure").

   The search space is widened from matrices over one program to pairs
   (program variant, matrix): the variants are the original program, its
   legal single-point distributions (for a program that is one top-level
   loop), and its legal fusion (for a program that is exactly two
   top-level loops).  Each variant carries its own layout and dependence
   matrix; the inner search is the ordinary completion procedure.  A
   [goal] predicate — e.g. "statement S runs under a reversed loop", or a
   shape requirement on the variant — selects among legal results, which
   is what makes restructuring observable: distribution decouples the
   per-statement rows that a single shared loop forces together. *)

module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Ast = Inl_ir.Ast
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout
module Analysis = Inl_depend.Analysis

type restructuring = Original | Distributed of int | Fused

type variant = {
  restructuring : restructuring;
  program : Ast.program;
  layout : Layout.t;
  deps : Dep.t list;
}

let describe = function
  | Original -> "original"
  | Distributed at -> Printf.sprintf "distributed at child %d" at
  | Fused -> "fused"

(* Distribution between children [at-1] and [at] of a single top-level
   loop runs all first-group instances before all second-group instances,
   so it is legal iff no dependence goes from the second group to the
   first.  The first such dependence is the error. *)
let distribution_legal (layout : Layout.t) (deps : Dep.t list) ~at : (unit, Dep.t) result =
  match layout.Layout.program.Ast.nest with
  | [ Ast.Loop l ] -> (
      if at <= 0 || at >= List.length l.Ast.body then
        invalid_arg "Completion_ext.distribution_legal: split point outside the loop body";
      (* every statement sits under the loop: its path is [0; child; ...] *)
      let second label = List.nth (Layout.stmt_info layout label).Layout.path 1 >= at in
      match List.find_opt (fun (d : Dep.t) -> second d.Dep.src && not (second d.dst)) deps with
      | None -> Ok ()
      | Some d -> Error d)
  | _ -> invalid_arg "Completion_ext.distribution_legal: program must be a single top-level loop"

(* Fusing two adjacent top-level loops (headers taken from the first) is
   legal iff no conflicting access pair (S in the first loop, T in the
   second, same cell, at least one write) has the T-instance at a
   strictly smaller outer iteration than the S-instance: in the fused
   loop T's body follows S's within an iteration, so i_S <= i_T keeps
   every original (all-of-L1-then-all-of-L2) ordering intact. *)
let fusion_legal (layout : Layout.t) : bool =
  match layout.Layout.program.Ast.nest with
  | [ Ast.Loop l1; Ast.Loop l2 ] ->
      let stmts_under c =
        List.filter
          (fun (si : Layout.stmt_info) -> match si.Layout.path with i :: _ -> i = c | [] -> false)
          layout.Layout.stmts
      in
      let conflict_backward (s : Layout.stmt_info) (t : Layout.stmt_info) =
        let rn_of si pre =
          let own = List.map (fun (_, (l : Ast.loop)) -> l.Ast.var) si.Layout.loops in
          fun v -> if List.mem v own then pre ^ v else v
        in
        let rs = rn_of s "s!" and rt = rn_of t "t!" in
        let pairs =
          List.concat_map
            (fun (w : Ast.aref) ->
              List.map (fun r -> (w, r)) (Analysis.reads_of t @ Analysis.writes_of t))
            (Analysis.writes_of s)
          @ List.concat_map
              (fun (r : Ast.aref) -> List.map (fun w -> (r, w)) (Analysis.writes_of t))
              (Analysis.reads_of s)
        in
        let outer_s = (fun (_, (l : Ast.loop)) -> l.Ast.var) (List.hd s.Layout.loops) in
        let outer_t = (fun (_, (l : Ast.loop)) -> l.Ast.var) (List.hd t.Layout.loops) in
        List.exists
          (fun ((a : Ast.aref), (b : Ast.aref)) ->
            String.equal a.Ast.array b.Ast.array
            && List.length a.Ast.index = List.length b.Ast.index
            &&
            let subs =
              List.map2
                (fun x y -> Constr.eq2 (Linexpr.rename rs x) (Linexpr.rename rt y))
                a.Ast.index b.Ast.index
            in
            let sys =
              System.of_list
                (Analysis.bounds_constraints s rs @ Analysis.bounds_constraints t rt @ subs
                @ [
                    Constr.lt2
                      (Linexpr.var (rt outer_t))
                      (Linexpr.var (rs outer_s));
                  ])
            in
            (* on budget exhaustion assume the backward pair is possible:
               fusion is refused rather than wrongly admitted *)
            (try Omega.satisfiable sys with Omega.Blowup _ -> true))
          pairs
      in
      let headers_match =
        (* the fused loop takes l1's header, so l2 must cover the same
           range: compare bounds with l2's variable renamed to l1's *)
        let rename_terms (b : Ast.bound) =
          List.map
            (fun ({ Ast.num; den } : Ast.bterm) ->
              (Linexpr.rename (fun v -> if String.equal v l2.Ast.var then l1.Ast.var else v) num, den))
            b.Ast.terms
        in
        let beq b1 b2 =
          b1.Ast.combine = b2.Ast.combine
          && List.length b1.Ast.terms = List.length b2.Ast.terms
          && List.for_all2
               (fun (n1, d1) (n2, d2) -> Linexpr.equal n1 n2 && Mpz.equal d1 d2)
               (rename_terms b1) (rename_terms b2)
        in
        beq l1.Ast.lower l2.Ast.lower && beq l1.Ast.upper l2.Ast.upper
        && Mpz.equal l1.Ast.step l2.Ast.step
      in
      headers_match
      && (not (l1.Ast.body = [] || l2.Ast.body = []))
      && not
           (List.exists
              (fun s -> List.exists (fun t -> conflict_backward s t) (stmts_under 1))
              (stmts_under 0))
  | _ -> false

let variants (layout : Layout.t) (deps : Dep.t list) : variant list =
  let base = { restructuring = Original; program = layout.Layout.program; layout; deps } in
  let distributions =
    match layout.Layout.program.Ast.nest with
    | [ Ast.Loop l ] ->
        List.filter_map
          (fun at ->
            if Result.is_ok (distribution_legal layout deps ~at) then begin
              let _, prog = Tmat.distribute layout ~at in
              let lay = Layout.of_program ~padding:layout.Layout.padding prog in
              Some
                { restructuring = Distributed at; program = prog; layout = lay; deps = Analysis.dependences lay }
            end
            else None)
          (List.init (List.length l.Ast.body - 1) (fun i -> i + 1))
    | _ -> []
  in
  let fusions =
    match layout.Layout.program.Ast.nest with
    | [ Ast.Loop _; Ast.Loop _ ] when fusion_legal layout ->
        let _, prog = Tmat.jam layout in
        let lay = Layout.of_program ~padding:layout.Layout.padding prog in
        [ { restructuring = Fused; program = prog; layout = lay; deps = Analysis.dependences lay } ]
    | _ -> []
  in
  (base :: distributions) @ fusions

(* Search every variant for a completion whose matrix satisfies [goal]
   against that variant. *)
let complete_with_restructuring ?options (layout : Layout.t) (deps : Dep.t list)
    ~(goal : variant -> Mat.t -> bool) : (variant * Mat.t) option =
  List.find_map
    (fun v ->
      match Completion.complete ?options ~goal:(goal v) v.layout v.deps ~partial:[] with
      | Some m -> Some (v, m)
      | None -> None)
    (variants layout deps)
