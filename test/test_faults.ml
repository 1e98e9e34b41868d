(* End-to-end robustness under injected Omega failures.

   The contract being proven: with fault injection forcing projections to
   fail — even every single one — the whole pipeline (analyze, legality,
   codegen, simplify, verify) either produces interpreter-verified
   equivalent code or returns a typed diagnostic.  It never throws. *)

module Interp = Inl_interp.Interp
module Diag = Inl.Diag
module Budget = Inl.Budget
module Faults = Inl.Faults
module Kernels = Inl_kernels.Paper_examples

let with_faults spec f =
  Faults.install spec;
  Fun.protect ~finally:(fun () -> Faults.install Faults.none) f

let with_budget b f =
  let saved = Inl.Budget.current () in
  Inl.Budget.install b;
  Fun.protect ~finally:(fun () -> Inl.Budget.install saved) f

let kernels =
  [
    ("figure1", Kernels.figure1, [ Inl.Pipeline.Interchange ("I", "J") ]);
    ( "simplified-cholesky",
      Kernels.simplified_cholesky,
      [ Inl.Pipeline.Reorder { parent = [ 0 ]; perm = [ 1; 0 ] }; Inl.Pipeline.Interchange ("I", "J") ] );
    ( "augmentation",
      Kernels.augmentation_example,
      [ Inl.Pipeline.Skew { target = "J"; source = "I"; factor = 1 } ] );
    ("update-kernel", Kernels.cholesky_update_kernel, [ Inl.Pipeline.Interchange ("J", "L") ]);
    ("lu", Kernels.lu, [ Inl.Pipeline.Interchange ("K", "I") ]);
  ]

(* Run a kernel through the full pipeline; any Ok result must be
   interpreter-equivalent.  Returns `Verified or `Refused (with its
   diagnostics); raises only on contract violations. *)
let drive name src steps : [ `Verified | `Refused of Diag.t list ] =
  match Inl.analyze_source_result src with
  | Error ds -> Alcotest.failf "%s: unexpected analysis failure: %s" name (Diag.list_to_string ds)
  | Ok ctx -> (
      match
        match Inl.pipeline ctx steps with
        | Error ds -> Error ds
        | Ok m -> Inl.transform ctx m
      with
      | Error [] -> Alcotest.failf "%s: refusal carried no diagnostics" name
      | Error ds ->
          List.iter
            (fun (d : Diag.t) ->
              if d.Diag.severity <> Diag.Error then
                Alcotest.failf "%s: refusal diagnostic is not an error: %s" name
                  (Diag.to_string d))
            ds;
          `Refused ds
      | Ok prog -> (
          match Interp.equivalent ctx.Inl.program prog ~params:[ ("N", 5) ] with
          | Ok () -> `Verified
          | Error d -> Alcotest.failf "%s: generated code NOT equivalent: %s" name d))

let fault_specs =
  [
    ("every-projection", { Faults.none with fail_every = Some 1 });
    ("every-2nd", { Faults.none with fail_every = Some 2 });
    ("every-3rd", { Faults.none with fail_every = Some 3 });
    ("after-5", { Faults.none with fail_after = Some 5 });
    ("work-capped", { Faults.none with cap_work = Some 30 });
  ]

let test_no_uncaught_exceptions () =
  List.iter
    (fun (sname, spec) ->
      List.iter
        (fun (kname, src, steps) ->
          (* any escaping exception fails the test run — that IS the bug *)
          ignore sname;
          match with_faults spec (fun () -> drive kname src steps) with
          | `Verified | `Refused _ -> ())
        kernels)
    fault_specs

(* With no faults the whole suite transforms and verifies cleanly — the
   baseline the degraded runs are measured against. *)
let test_baseline_all_verified () =
  List.iter
    (fun (kname, src, steps) ->
      match drive kname src steps with
      | `Verified -> ()
      | `Refused ds -> Alcotest.failf "%s: unexpectedly refused: %s" kname (Diag.list_to_string ds))
    kernels

(* A transformation that the conservative dependences still admit must
   survive total fault injection end to end: code is produced, verified
   equivalent, and the context is flagged as degraded. *)
let test_degraded_but_succeeded () =
  with_faults
    { Faults.none with fail_every = Some 1 }
    (fun () ->
      match Inl.analyze_source_result Kernels.simplified_cholesky with
      | Error ds -> Alcotest.failf "analysis failed: %s" (Diag.list_to_string ds)
      | Ok ctx -> (
          Alcotest.(check bool) "context degraded" true (Inl.degraded ctx);
          Alcotest.(check bool) "warnings recorded" true (Diag.has_warnings ctx.Inl.diags);
          Alcotest.(check int) "exit code 2" 2 (Diag.exit_code ctx.Inl.diags);
          match Inl.transform ctx (Inl.Tmat.scaling ctx.Inl.layout "I" 1) with
          | Error ds -> Alcotest.failf "identity scale refused: %s" (Diag.list_to_string ds)
          | Ok prog -> (
              match Interp.equivalent ctx.Inl.program prog ~params:[ ("N", 6) ] with
              | Ok () -> ()
              | Error d -> Alcotest.failf "degraded codegen not equivalent: %s" d)))

(* Tiny real budgets (no injection) take the same degradation path. *)
let test_budget_exhaustion_degrades () =
  with_budget (Budget.with_fm_work Budget.default 10) (fun () ->
      match Inl.analyze_source_result Kernels.simplified_cholesky with
      | Error ds -> Alcotest.failf "analysis failed: %s" (Diag.list_to_string ds)
      | Ok ctx ->
          Alcotest.(check bool) "degraded under tiny budget" true (Inl.degraded ctx);
          List.iter
            (fun (d : Diag.t) ->
              Alcotest.(check string) "code" "A201" d.Diag.code;
              Alcotest.(check bool) "warning severity" true (d.Diag.severity = Diag.Warning))
            ctx.Inl.diags)

(* Parse failures surface as typed diagnostics, not exceptions. *)
let test_parse_error_diag () =
  match Inl.analyze_source_result "params N\ndo I = 1..N\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error ds -> (
      match ds with
      | [ d ] ->
          Alcotest.(check string) "code" "P101" d.Diag.code;
          Alcotest.(check bool) "error severity" true (d.Diag.severity = Diag.Error);
          Alcotest.(check int) "exit code 1" 1 (Diag.exit_code ds)
      | _ -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds))

(* Fault-spec parsing: accepted forms round-trip, junk is rejected. *)
let test_fault_spec_parsing () =
  (match Faults.parse "every=2,after=10,cap=100" with
  | Ok f ->
      Alcotest.(check (option int)) "every" (Some 2) f.Faults.fail_every;
      Alcotest.(check (option int)) "after" (Some 10) f.Faults.fail_after;
      Alcotest.(check (option int)) "cap" (Some 100) f.Faults.cap_work
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  (match Faults.parse "off" with
  | Ok f -> Alcotest.(check bool) "off is none" true (f = Faults.none)
  | Error e -> Alcotest.failf "off rejected: %s" e);
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "bad spec accepted: %S" bad
      | Error _ -> ())
    [ "bogus"; "every="; "every=zero"; "frob=3"; "every=0" ]

let () =
  Alcotest.run "faults"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "baseline verified" `Quick test_baseline_all_verified;
          Alcotest.test_case "no uncaught exceptions" `Quick test_no_uncaught_exceptions;
          Alcotest.test_case "degraded but succeeded" `Quick test_degraded_but_succeeded;
          Alcotest.test_case "budget exhaustion degrades" `Quick test_budget_exhaustion_degrades;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "parse error diagnostic" `Quick test_parse_error_diag;
          Alcotest.test_case "fault spec parsing" `Quick test_fault_spec_parsing;
        ] );
    ]
