(* The approaches the paper argues against (Sections 1 and 4.1), built as
   comparators:

   - {!perfect_only}: the classical unimodular framework for perfectly
     nested loops, which simply cannot accept an imperfect nest;
   - {!Distribution}: turning an imperfect nest into perfect ones by loop
     distribution, legal only without backward inter-group dependences —
     and illegal on the matrix factorization codes;
   - {!Sinking}: making the nest perfect by sinking statements into the
     inner loop behind first/last-iteration guards; unsound when the
     inner loop's range can be empty (simplified Cholesky at I = N), a
     defect the direct framework does not have. *)

module Mpz = Inl_num.Mpz
module Mat = Inl_linalg.Mat
module Linexpr = Inl_presburger.Linexpr
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout
module Dep = Inl_depend.Dep
module Analysis = Inl_depend.Analysis

(* ---- the perfect-nest-only unimodular framework ---- *)

type perfect_verdict =
  | Not_perfect  (** the baseline cannot even represent the program *)
  | Perfect_illegal of string
  | Perfect_legal

(* For a perfect nest, the instance vectors ARE iteration vectors
   (Section 2.2), so the classical test — every transformed distance
   lexicographically positive — is the projection-free special case of
   Definition 6. *)
let perfect_only (prog : Ast.program) (t : Mat.t) : perfect_verdict =
  if not (Ast.is_perfect prog) then Not_perfect
  else begin
    let layout = Layout.of_program prog in
    let deps = Analysis.dependences layout in
    match Inl.Legality.check layout t deps with
    | Inl.Legality.Legal _ -> Perfect_legal
    | Inl.Legality.Illegal msg -> Perfect_illegal msg
  end

(* ---- loop distribution ---- *)

module Distribution = struct
  (* Distributing the single top-level loop between children [at-1] and
     [at] is legal iff no dependence flows from a second-group statement
     to a first-group one: the completion extension's rule, whose
     offender this names. *)
  let legal (layout : Layout.t) (deps : Dep.t list) ~(at : int) : (unit, string) result =
    Result.map_error
      (Format.asprintf "dependence %a crosses backward over the split" Dep.pp)
      (Inl.Completion_ext.distribution_legal layout deps ~at)

  let apply (layout : Layout.t) ~(at : int) : Ast.program =
    snd (Inl.Tmat.distribute layout ~at)
end

(* ---- statement sinking ---- *)

module Sinking = struct
  (* Sink a statement that precedes a loop into that loop's first
     iteration (and one that follows it into the last iteration), making
     the pair perfectly nested.  This is the textbook construction the
     paper alludes to ("the commonly used strategy of performing
     transformations after sinking all statements into the innermost
     loop") — and it is UNSOUND when the loop's range can be empty, since
     the guarded copy then never executes.  We implement it faithfully,
     defect included; the test suite exhibits the lost iteration on
     simplified Cholesky at I = N. *)

  let sink_into_following_loop (prog : Ast.program) : (Ast.program, string) result =
    match prog.Ast.nest with
    | [ Ast.Loop outer ] -> (
        match outer.Ast.body with
        | [ Ast.Stmt s; Ast.Loop inner ] ->
            if inner.Ast.lower.Ast.combine <> `Max then Error "unexpected covering bound"
            else begin
              (* guard: var = lower bound; with several lower terms the
                 guard uses the max, which is not affine — restrict to a
                 single term *)
              match inner.Ast.lower.Ast.terms with
              | [ { Ast.num; den } ] when Mpz.is_one den ->
                  let guard =
                    Ast.Gcmp (`Eq, Linexpr.sub (Linexpr.var inner.Ast.var) num)
                  in
                  let body' = Ast.If ([ guard ], [ Ast.Stmt s ]) :: inner.Ast.body in
                  Ok
                    {
                      prog with
                      Ast.nest = [ Ast.Loop { outer with Ast.body = [ Ast.Loop { inner with Ast.body = body' } ] } ];
                    }
              | _ -> Error "inner loop lower bound is not a single integral term"
            end
        | _ -> Error "expected exactly [statement; loop] under the outer loop")
    | _ -> Error "expected a single outer loop"
end
