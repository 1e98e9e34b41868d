(* The execution runtime against its contract:

   - plan choice: the outermost provably-DOALL loop wins; kernels with
     no parallel dimension degrade to a typed X901 sequential plan;
   - chunked execution: running the DOALL loop's range in chunks over
     1, 2 and 4 workers reproduces the reference walker's store exactly;
   - the differential property: for fuzz-generated programs and jobs in
     {1, 2, 4}, parallel execution under the chosen plan produces a
     store byte-identical to the sequential interpreter's — and when it
     cannot (no DOALL dimension), the sequential fallback does;
   - benchmark reports: the differential gate ran, labels, plans and
     DOALL/loop counts of six pinned (kernel, schedule) rows are stable
     and wall-time-free, degradations and refusals carry their codes. *)

module Ast = Inl_ir.Ast
module Interp = Inl_interp.Interp
module Exec = Inl_exec.Exec
module Doall = Inl_verify.Doall
module Diag = Inl_diag.Diag
module Gen = Inl_fuzz.Gen
module Px = Inl_kernels.Paper_examples

let parse src = (Inl.analyze_source src).Inl.program

let seidel1d =
  "params T\n\
   params N\n\
   do K = 1..T\n\
  \  do I = 2..N-1\n\
  \    S1: A(I) = A(I-1) + A(I) + A(I+1)\n\
  \  enddo\n\
   enddo\n"

let jacobi1d =
  "params T\n\
   params N\n\
   do K = 1..T\n\
  \  do I = 2..N-1\n\
  \    S1: A(K,I) = A(K-1,I-1) + A(K-1,I) + A(K-1,I+1)\n\
  \  enddo\n\
   enddo\n"

(* skew the space loop by twice the time loop, then interchange *)
let wavefront =
  Inl.Pipeline.[ Skew { target = "I"; source = "K"; factor = 2 }; Interchange ("K", "I") ]

(* a recipe goes through materialize + transform, whose code renames
   loops t1..tn *)
let transformed ?(steps = []) ?(partial = []) src =
  let ctx = Inl.analyze_source src in
  match Inl_fuzz.Tf.materialize ctx { Inl_fuzz.Tf.steps; partial; edits = [] } with
  | Ok mat -> Inl.transform_exn ctx mat
  | Error m -> Alcotest.failf "recipe does not materialize: %s" m

(* ---- plan choice ---- *)

let test_choose_outermost () =
  let prog = parse Px.cholesky_kji in
  match Exec.choose (Exec.analyze prog) with
  | Exec.Par { var; depth; _ } ->
      (* K carries the factorization order; the update loops under it are
         all DOALL, and the DFS-first of the outermost ones is I *)
      Alcotest.(check string) "outermost doall loop" "I" var;
      Alcotest.(check int) "it is one level down" 1 depth
  | Exec.Seq _ -> Alcotest.fail "cholesky has DOALL dimensions"

let test_choose_degrades_without_doall () =
  let prog = parse seidel1d in
  match Exec.choose (Exec.analyze prog) with
  | Exec.Par { var; _ } -> Alcotest.failf "seidel1d has no DOALL dimension, chose %s" var
  | Exec.Seq None -> Alcotest.fail "degradation must be typed"
  | Exec.Seq (Some d) ->
      Alcotest.(check string) "typed X901" "X901" d.Diag.code;
      Alcotest.(check bool) "warning severity" true (d.Diag.severity = Diag.Warning)

let test_choose_straight_line () =
  let prog = parse "params N\nS1: A(1) = 2\n" in
  match Exec.choose (Exec.analyze prog) with
  | Exec.Seq None -> ()
  | Exec.Seq (Some d) -> Alcotest.failf "no loops is not a degradation: %s" (Diag.to_string d)
  | Exec.Par _ -> Alcotest.fail "nothing to parallelize"

(* ---- parallel execution matches the interpreter ---- *)

let exec_matches_seq prog ~params ~jobs =
  let plan = Exec.choose (Exec.analyze prog) in
  let seq = Interp.run ~max_steps:500_000 prog ~params in
  let par = Exec.execute ~jobs ~max_steps:500_000 ~plan prog ~params in
  match Interp.store_diff seq par with
  | Ok () -> true
  | Error d ->
      QCheck2.Test.fail_reportf "jobs=%d: parallel store diverged: %s" jobs d

let differential_prop (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let params = List.map (fun p -> (p, 5)) prog.Ast.params in
  List.for_all (fun jobs -> exec_matches_seq prog ~params ~jobs) [ 1; 2; 4 ]

let differential_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parallel execution matches the sequential interpreter" ~count:30
       QCheck2.Gen.(pair (int_bound 4) (int_bound 29))
       differential_prop)

let test_wavefront_executes_parallel () =
  (* seidel1d has no DOALL dimension as written; skewing time into
     space by 2 and interchanging makes the inner loop parallel — the
     compound move lib/search enumerates, executed for real here *)
  let prog = transformed ~steps:wavefront seidel1d in
  let params = [ ("T", 6); ("N", 9) ] in
  (match Exec.choose (Exec.analyze prog) with
  | Exec.Par { depth; _ } -> Alcotest.(check int) "inner loop parallel" 1 depth
  | Exec.Seq _ -> Alcotest.fail "wavefront seidel1d must gain a DOALL dimension");
  List.iter
    (fun jobs -> ignore (exec_matches_seq prog ~params ~jobs))
    [ 2; 4 ]

(* ---- benchmark reports ---- *)

(* One row per (kernel, schedule) pair the exec runtime is pinned on:
   label, plan, DOALL count and loop count are structural, never wall
   time, so they hold at any size.  The cholesky winner is the one
   test/search.t pins for its small fixed-seed search. *)
let exec_rows () =
  [
    ("cholesky/identity", parse Px.cholesky_kji, ("ok:doall=I", "par:I", 3, 4));
    ( "cholesky/complete row=[0,0,0,0,1,0,0]",
      transformed ~partial:[ [ 0; 0; 0; 0; 1; 0; 0 ] ] Px.cholesky_kji,
      ("ok:doall=t3", "par:t3", 3, 5) );
    ("jacobi1d/identity", parse jacobi1d, ("ok:doall=I", "par:I", 1, 2));
    ( "jacobi1d/wavefront(f=2)",
      transformed ~steps:wavefront jacobi1d,
      ("ok:doall=t2", "par:t2", 1, 2) );
    ("seidel1d/identity", parse seidel1d, ("degraded:X901", "seq", 0, 2));
    ( "seidel1d/wavefront(f=2)",
      transformed ~steps:wavefront seidel1d,
      ("ok:doall=t2", "par:t2", 1, 2) );
  ]

(* ---- chunked execution against the reference walker ---- *)

(* Every pinned row, with its range chunked over 1, 2 and 4 workers, must
   reproduce the reference walker's store — chunk boundaries included,
   and with fewer iterations than workers on the short entries. *)
let test_chunked_matches_walker () =
  List.iter
    (fun (name, prog, _) ->
      let params = List.map (fun p -> (p, 7)) prog.Ast.params in
      let plan = Exec.choose (Exec.analyze prog) in
      let reference = Walker.run prog ~params in
      List.iter
        (fun jobs ->
          match Interp.store_diff reference (Exec.execute ~jobs ~plan prog ~params) with
          | Ok () -> ()
          | Error d -> Alcotest.failf "%s, jobs=%d: chunked run diverged from the walker: %s" name jobs d)
        [ 1; 2; 4 ])
    (exec_rows ())

let test_benchmark_report () =
  List.iter
    (fun (name, prog, (label, plan, doall, loops)) ->
      let params = List.map (fun p -> (p, 8)) prog.Ast.params in
      let result = Exec.benchmark ~jobs:2 ~repeat:1 prog ~params in
      Alcotest.(check string) (name ^ ": label") label (Exec.label result);
      match result with
      | Error ds -> Alcotest.failf "%s: benchmark refused: %s" name (Diag.list_to_string ds)
      | Ok r ->
          let got_plan =
            match Exec.plan_var r.Exec.plan with Some v -> "par:" ^ v | None -> "seq"
          in
          Alcotest.(check string) (name ^ ": plan") plan got_plan;
          Alcotest.(check int) (name ^ ": doall loops") doall (Exec.doall_count r.Exec.doall);
          Alcotest.(check int) (name ^ ": loops") loops r.Exec.loops;
          Alcotest.(check bool) (name ^ ": store non-empty") true (r.Exec.cells > 0);
          Alcotest.(check bool) (name ^ ": timings measured") true
            (r.Exec.seq_ms >= 0. && r.Exec.par_ms >= 0.);
          let lines = Exec.render ~timings:false r in
          Alcotest.(check int) (name ^ ": render shape") 5 (List.length lines);
          Alcotest.(check bool) (name ^ ": masked render is wall-time-free") true
            (List.for_all (fun l -> not (String.contains l '.')) lines))
    (exec_rows ())

let test_benchmark_degrades () =
  let prog = parse seidel1d in
  match Exec.benchmark ~jobs:2 ~repeat:1 prog ~params:[ ("T", 4); ("N", 8) ] with
  | Error ds -> Alcotest.failf "degradation is not refusal: %s" (Diag.list_to_string ds)
  | Ok r ->
      Alcotest.(check string) "degraded label" "degraded:X901" (Exec.label (Ok r));
      Alcotest.(check bool) "X901 note present" true
        (List.exists (fun (d : Diag.t) -> d.Diag.code = "X901") r.Exec.notes);
      Alcotest.(check int) "exit code 2: degraded, answered" 2 (Diag.exit_code r.Exec.notes)

let test_benchmark_step_limit () =
  let prog = parse Px.cholesky_kji in
  match Exec.benchmark ~jobs:2 ~repeat:1 ~max_steps:3 prog ~params:[ ("N", 6) ] with
  | Ok _ -> Alcotest.fail "3 steps cannot finish cholesky"
  | Error ds ->
      Alcotest.(check (list string)) "typed X803" [ "X803" ]
        (List.map (fun (d : Diag.t) -> d.Diag.code) ds)

(* A subscript coefficient of 2^61 would wrap a 63-bit sum at I = 4;
   the runner refuses it when it is built, so the benchmark reports a
   typed X802 instead of a store of wrapped cells. *)
let test_benchmark_out_of_range () =
  let prog = parse "params N\ndo I = 1..N\n  S1: A(2305843009213693952*I) = A(2305843009213693952*I) + 1\nenddo\n" in
  match Exec.benchmark ~jobs:2 ~repeat:1 prog ~params:[ ("N", 8) ] with
  | Ok _ -> Alcotest.fail "an out-of-range coefficient must be refused"
  | Error ds ->
      Alcotest.(check (list string)) "typed X802" [ "X802" ]
        (List.map (fun (d : Diag.t) -> d.Diag.code) ds)

let () =
  Alcotest.run "exec"
    [
      ( "plan",
        [
          Alcotest.test_case "outermost doall loop wins" `Quick test_choose_outermost;
          Alcotest.test_case "no doall -> typed sequential" `Quick
            test_choose_degrades_without_doall;
          Alcotest.test_case "straight-line -> silent sequential" `Quick
            test_choose_straight_line;
        ] );
      ( "chunks",
        [ Alcotest.test_case "chunked execution matches the walker" `Quick test_chunked_matches_walker ] );
      ( "differential",
        [
          differential_property;
          Alcotest.test_case "wavefront seidel1d runs parallel" `Quick
            test_wavefront_executes_parallel;
        ] );
      ( "benchmark",
        [
          Alcotest.test_case "report fields and label" `Quick test_benchmark_report;
          Alcotest.test_case "degradation is typed, not fatal" `Quick test_benchmark_degrades;
          Alcotest.test_case "step limit is typed" `Quick test_benchmark_step_limit;
          Alcotest.test_case "out-of-range coefficient is typed" `Quick test_benchmark_out_of_range;
        ] );
    ]
