(* Unit tests for the static verifier (lib/verify): the well-formedness
   lint codes, the DOALL detector, translation validation on the paper
   kernels' transformed output, and graceful degradation under an
   exhausted resource budget. *)

module Ast = Inl_ir.Ast
module Parser = Inl_ir.Parser
module Linexpr = Inl_presburger.Linexpr
module Mpz = Inl_num.Mpz
module Diag = Inl_diag.Diag
module Budget = Inl_diag.Budget
module Verify = Inl_verify.Verify
module Doall = Inl_verify.Doall
module Vec = Inl_linalg.Vec

let cholesky_src =
  "params N\ndo I = 1..N\n S1: A(I) = sqrt(A(I))\n do J = I+1..N\n  S2: A(J) = A(J) / A(I)\n \
   enddo\nenddo\n"

let cholesky_gen =
  "params N\ndo t1 = 1..N\n do t2 = 1..t1 - 1\n  S2: A(t1) = A(t1) / A(t2)\n enddo\n S1: A(t1) \
   = sqrt(A(t1))\nenddo\n"

let parse src = Parser.parse_exn src

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let has_code c ds = List.mem c (codes ds)

let check_codes name expected ds =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports %s (got: %s)" name c (String.concat "," (codes ds)))
        true (has_code c ds))
    expected

(* ---- translation validation on paper kernels ---- *)

let context src =
  match Inl.analyze_source_result src with
  | Ok ctx -> ctx
  | Error ds -> Alcotest.fail (Diag.list_to_string ds)

let generated ctx steps =
  match Inl.pipeline ctx steps with
  | Error ds -> Alcotest.fail (Diag.list_to_string ds)
  | Ok m -> (
      match Inl.transform ctx m with
      | Error ds -> Alcotest.fail (Diag.list_to_string ds)
      | Ok prog -> prog)

let test_cholesky_verified () =
  let ctx = context cholesky_src in
  let prog =
    generated ctx
      [ Inl.Pipeline.Reorder { parent = [ 0 ]; perm = [ 1; 0 ] }; Inl.Pipeline.Interchange ("I", "J") ]
  in
  let report = Verify.run ~against:ctx.Inl.program prog in
  Alcotest.(check (list string)) "no findings" [] (codes (Verify.diags report))

let lu_src =
  "params N\ndo K = 1..N\n do I = K+1..N\n  S1: A(I,K) = A(I,K) / A(K,K)\n  do J = K+1..N\n   \
   S2: A(I,J) = A(I,J) - A(I,K) * A(K,J)\n  enddo\n enddo\nenddo\n"

let test_lu_completion_verified () =
  let ctx = context lu_src in
  let partial = [ Vec.of_int_list [ 0; 1; 0; 0; 0 ] ] in
  let prog =
    match Inl.complete_result ctx ~partial with
    | Error ds -> Alcotest.fail (Diag.list_to_string ds)
    | Ok m -> (
        match Inl.transform ctx m with
        | Error ds -> Alcotest.fail (Diag.list_to_string ds)
        | Ok prog -> prog)
  in
  (* row-LU output is imperfectly nested with per-statement guards *)
  let report = Verify.run ~against:ctx.Inl.program prog in
  Alcotest.(check (list string)) "no findings" [] (codes (Verify.diags report))

let test_strided_verified () =
  let src = "params N\ndo I = 1..N\n S1: A(I) = A(I) + 1\nenddo\n" in
  let ctx = context src in
  let prog = generated ctx [ Inl.Pipeline.Scale ("I", 2) ] in
  (* scaled output has a strided loop and a Let quotient *)
  let report = Verify.run ~against:ctx.Inl.program prog in
  Alcotest.(check (list string)) "no findings" [] (codes (Verify.diags report))

(* ---- targeted equivalence mutants (stable codes) ---- *)

let against_cholesky gen_src =
  let source = parse cholesky_src in
  Verify.diags (Verify.run ~against:source (parse gen_src))

let test_dropped_iterations () =
  check_codes "shrunk bound" [ "V101" ]
    (against_cholesky
       "params N\ndo t1 = 1..N\n do t2 = 1..t1 - 2\n  S2: A(t1) = A(t1) / A(t2)\n enddo\n S1: \
        A(t1) = sqrt(A(t1))\nenddo\n")

let test_extra_iterations () =
  check_codes "extended bound" [ "V102" ]
    (against_cholesky
       "params N\ndo t1 = 1..N\n do t2 = 1..t1\n  S2: A(t1) = A(t1) / A(t2)\n enddo\n S1: A(t1) \
        = sqrt(A(t1))\nenddo\n")

let test_duplicated_iterations () =
  (* an extra unit-range-2 loop re-executes every instance *)
  check_codes "duplicating wrapper" [ "V103" ]
    (against_cholesky
       ("params N\ndo R = 1..2\n"
      ^ "do t1 = 1..N\n do t2 = 1..t1 - 1\n  S2: A(t1) = A(t1) / A(t2)\n enddo\n S1: A(t1) = \
         sqrt(A(t1))\nenddo\nenddo\n"))

let test_order_violation () =
  check_codes "statements swapped" [ "V104" ]
    (against_cholesky
       "params N\ndo t1 = 1..N\n S1: A(t1) = sqrt(A(t1))\n do t2 = 1..t1 - 1\n  S2: A(t1) = \
        A(t1) / A(t2)\n enddo\nenddo\n")

let test_body_mismatch () =
  check_codes "operator changed" [ "V105" ]
    (against_cholesky
       "params N\ndo t1 = 1..N\n do t2 = 1..t1 - 1\n  S2: A(t1) = A(t1) * A(t2)\n enddo\n S1: \
        A(t1) = sqrt(A(t1))\nenddo\n")

let test_statement_set_mismatch () =
  check_codes "statement dropped" [ "V106" ]
    (against_cholesky
       "params N\ndo t1 = 1..N\n do t2 = 1..t1 - 1\n  S2: A(t1) = A(t1) / A(t2)\n \
        enddo\nenddo\n")

(* ---- lint codes ---- *)

let lint src = Verify.diags (Verify.run (parse src))

let test_lint_dead_loop () =
  check_codes "empty bounds" [ "V001" ]
    (lint "params N\ndo I = 1..N\n do J = I..I-1\n  S1: A(J) = 0\n enddo\nenddo\n")

let test_lint_unreachable_guard () =
  check_codes "refuted guard" [ "V002" ]
    (lint "params N\ndo I = 1..N\n if (I - N - 1 >= 0) then\n  S1: A(I) = 0\n endif\nenddo\n")

let test_lint_singular_loop () =
  check_codes "one-trip loop" [ "V003" ] (lint "params N\ndo I = 5..5\n S1: A(I) = 0\nenddo\n")

let test_lint_redundant_guard () =
  check_codes "implied guard" [ "V004" ]
    (lint "params N\ndo I = 1..N\n if (N - I >= 0) then\n  S1: A(I) = 0\n endif\nenddo\n")

let test_lint_scope_error () =
  (* the parser rejects unbound names, so build the AST directly *)
  let prog : Ast.program =
    {
      Ast.params = [ "N" ];
      nest =
        [
          Ast.simple_loop "I" (Ast.bterm_int 1) (Ast.bterm_var "N")
            [
              Ast.Stmt
                { Ast.label = "S1"; lhs = { Ast.array = "A"; index = [ Linexpr.var "Z" ] }; rhs = Ast.Econst 0. };
            ];
        ];
    }
  in
  check_codes "unbound variable" [ "V005" ] (Verify.diags (Verify.run prog))

let test_lint_unguarded_division () =
  let prog : Ast.program =
    {
      Ast.params = [ "N" ];
      nest =
        [
          Ast.simple_loop "I" (Ast.bterm_int 1) (Ast.bterm_var "N")
            [
              Ast.Let
                ( "v",
                  { Ast.num = Linexpr.var "I"; den = Mpz.of_int 2 },
                  [
                    Ast.Stmt
                      {
                        Ast.label = "S1";
                        lhs = { Ast.array = "A"; index = [ Linexpr.var "v" ] };
                        rhs = Ast.Econst 0.;
                      };
                  ] );
            ];
        ];
    }
  in
  check_codes "inexact let" [ "V006" ] (Verify.diags (Verify.run prog))

let test_lint_malformed () =
  let stmt label =
    Ast.Stmt { Ast.label; lhs = { Ast.array = "A"; index = [ Linexpr.var "I" ] }; rhs = Ast.Econst 0. }
  in
  let prog : Ast.program =
    {
      Ast.params = [ "N" ];
      nest = [ Ast.simple_loop "I" (Ast.bterm_int 1) (Ast.bterm_var "N") [ stmt "S1"; stmt "S1" ] ];
    }
  in
  check_codes "duplicate label" [ "V007" ] (Verify.diags (Verify.run prog))

(* ---- DOALL detection ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_doall_parallel () =
  let prog = parse "params N\ndo I = 1..N\n do J = 1..N\n  S1: B(I,J) = A(I,J) + 1\n enddo\nenddo\n" in
  let report = Verify.run prog in
  List.iter
    (fun (_, var, status) ->
      Alcotest.(check bool) (var ^ " parallel") true (status = Doall.Parallel))
    report.Verify.loops;
  let annotated = Verify.annotated prog report.Verify.loops in
  Alcotest.(check bool) "annotation printed" true (contains annotated "/* parallel */")

let test_doall_serial () =
  let prog = parse cholesky_gen in
  let report = Verify.run prog in
  List.iter
    (fun (_, var, status) ->
      match status with
      | Doall.Serial (_ :: _) -> ()
      | _ -> Alcotest.fail (var ^ " should be serial with witnesses"))
    report.Verify.loops

(* ---- budget degradation ---- *)

let test_budget_degrades () =
  let saved = Inl.Budget.current () in
  Inl.Budget.install (Budget.with_fm_work Budget.default 30);
  Fun.protect
    ~finally:(fun () -> Inl.Budget.install saved)
    (fun () ->
      let ds = against_cholesky cholesky_gen in
      Alcotest.(check bool) "no errors, only degradation" false (Diag.has_errors ds);
      check_codes "degrades to V900" [ "V900" ] ds)

let () =
  Alcotest.run "verify"
    [
      ( "translation validation",
        [
          Alcotest.test_case "cholesky permutation verified" `Quick test_cholesky_verified;
          Alcotest.test_case "row-LU completion verified" `Quick test_lu_completion_verified;
          Alcotest.test_case "strided scaling verified" `Quick test_strided_verified;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "dropped iterations (V101)" `Quick test_dropped_iterations;
          Alcotest.test_case "extra iterations (V102)" `Quick test_extra_iterations;
          Alcotest.test_case "duplicated iterations (V103)" `Quick test_duplicated_iterations;
          Alcotest.test_case "dependence order (V104)" `Quick test_order_violation;
          Alcotest.test_case "body mismatch (V105)" `Quick test_body_mismatch;
          Alcotest.test_case "statement set (V106)" `Quick test_statement_set_mismatch;
        ] );
      ( "lint",
        [
          Alcotest.test_case "dead loop (V001)" `Quick test_lint_dead_loop;
          Alcotest.test_case "unreachable guard (V002)" `Quick test_lint_unreachable_guard;
          Alcotest.test_case "singular loop (V003)" `Quick test_lint_singular_loop;
          Alcotest.test_case "redundant guard (V004)" `Quick test_lint_redundant_guard;
          Alcotest.test_case "scope error (V005)" `Quick test_lint_scope_error;
          Alcotest.test_case "unguarded division (V006)" `Quick test_lint_unguarded_division;
          Alcotest.test_case "malformed (V007)" `Quick test_lint_malformed;
        ] );
      ( "doall",
        [
          Alcotest.test_case "parallel loops" `Quick test_doall_parallel;
          Alcotest.test_case "serial loops with witnesses" `Quick test_doall_serial;
        ] );
      ("budget", [ Alcotest.test_case "degrades to V900" `Quick test_budget_degrades ]);
    ]
