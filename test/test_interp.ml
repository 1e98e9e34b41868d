(* Interpreter coverage for the shapes code generation actually emits:
   augmentation (extra-loop) output with singular-statement guards,
   negative bounds from reversal, strided loops with exact-division lets
   from scaling — plus the bounded-execution contract the fuzzing oracle
   relies on.  Each generated program is also round-tripped through the
   pretty-printer and parser, because that is how quarantined fuzz cases
   come back from disk.

   The staged runner is checked differentially against the reference
   walker (test/walker.ml) on generated programs, source and
   recipe-transformed: stores bit for bit, access traces element by
   element, extents against the hull of the trace, where a random step
   allowance runs out, and the refusal of a non-exact [Let].  An allocation guard keeps per-access allocation
   from coming back. *)

module Interp = Inl_interp.Interp
module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Parser = Inl_ir.Parser
module Mat = Inl_linalg.Mat
module Px = Inl_kernels.Paper_examples
module Mpz = Inl_num.Mpz
module Meval = Inl_ir.Meval
module Linexpr = Inl_presburger.Linexpr
module Gen = Inl_fuzz.Gen
module Tf = Inl_fuzz.Tf

let sizes = [ 1; 2; 3; 5 ]

let check_equiv name src gen =
  List.iter
    (fun n ->
      match Interp.equivalent src gen ~params:[ ("N", n) ] with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s differs at N=%d: %s" name n d)
    sizes

let transform_exn ?(simplify = true) src rows =
  let ctx = Inl.analyze_source src in
  match Inl.transform ctx ~simplify (Mat.of_int_lists rows) with
  | Ok p -> (ctx.Inl.program, p)
  | Error ds -> Alcotest.failf "transform failed: %s" (Inl.Diag.list_to_string ds)

let pipeline_exn ?(simplify = true) src steps =
  let ctx = Inl.analyze_source src in
  let steps =
    List.map
      (fun (kind, spec) ->
        match Inl.Pipeline.step_of_spec ~kind spec with
        | Ok s -> s
        | Error msg -> Alcotest.failf "bad step %s %s: %s" kind spec msg)
      steps
  in
  match Inl.pipeline ctx steps with
  | Error ds -> Alcotest.failf "pipeline failed: %s" (Inl.Diag.list_to_string ds)
  | Ok m -> (
      match Inl.transform ctx ~simplify m with
      | Ok p -> (ctx.Inl.program, p)
      | Error ds -> Alcotest.failf "transform failed: %s" (Inl.Diag.list_to_string ds))

let rec fold_nodes f acc node =
  let acc = f acc node in
  match node with
  | Ast.Loop l -> List.fold_left (fold_nodes f) acc l.Ast.body
  | Ast.If (_, body) | Ast.Let (_, _, body) -> List.fold_left (fold_nodes f) acc body
  | Ast.Stmt _ -> acc

let count (prog : Ast.program) pred =
  List.fold_left (fold_nodes (fun a n -> if pred n then a + 1 else a)) 0 prog.Ast.nest

let roundtrip name (gen : Ast.program) =
  match Parser.parse (Pp.program_to_string gen) with
  | Error msg -> Alcotest.failf "%s does not re-parse: %s" name msg
  | Ok back -> back

(* ---- augmented codegen output (Section 5.4/5.5) ---- *)

let test_augmented_equivalent () =
  (* the paper's singular-S1 matrix: S1 collapses to one outer iteration
     and codegen augments it with an extra loop plus a guard *)
  List.iter
    (fun simplify ->
      let src, gen =
        transform_exn ~simplify Px.augmentation_example Px.section55_matrix_rows
      in
      check_equiv "augmented" src gen;
      check_equiv "augmented (re-parsed)" src (roundtrip "augmented" gen))
    [ false; true ]

let test_augmented_structure () =
  let _, gen = transform_exn ~simplify:false Px.augmentation_example Px.section55_matrix_rows in
  let loops = count gen (function Ast.Loop _ -> true | _ -> false) in
  let guards = count gen (function Ast.If _ -> true | _ -> false) in
  Alcotest.(check bool) "augmentation loop present" true (loops >= 3);
  Alcotest.(check bool) "singular-statement guard present" true (guards >= 1)

let test_singular_guard_counts () =
  (* the guard must fire S1 exactly as often as the source runs it: the
     augmented loop enumerates candidates, the guard filters them *)
  let src, gen = pipeline_exn ~simplify:false Px.augmentation_example [ ("skew", "I,J,-1") ] in
  Alcotest.(check bool) "guard present" true
    (count gen (function Ast.If _ -> true | _ -> false) >= 1);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "operation count at N=%d" n)
        (Interp.operation_count src ~params:[ ("N", n) ])
        (Interp.operation_count gen ~params:[ ("N", n) ]))
    sizes;
  check_equiv "singular guard" src gen

(* ---- reversal: negative loop bounds ---- *)

let rev_src = "params N\ndo i = 1..N\n  S1: B(i) = A(i) + C(i - 1)\nenddo\n"

let test_reverse_negative_bounds () =
  let src, gen = pipeline_exn rev_src [ ("reverse", "i") ] in
  (* the reversed loop runs -N..-1: upper bound constant -1 *)
  let neg_upper =
    count gen (function
      | Ast.Loop l -> (
          match l.Ast.upper.Ast.terms with
          | [ { Ast.num; _ } ] ->
              Inl_presburger.Linexpr.vars num = [] && Mpz.sign (Inl_presburger.Linexpr.constant num) < 0
          | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "negative upper bound" true (neg_upper >= 1);
  check_equiv "reversed" src gen;
  check_equiv "reversed (re-parsed)" src (roundtrip "reversed" gen)

let test_scale_strided () =
  (* scaling emits a strided loop plus an exact-division let binding *)
  let src, gen = pipeline_exn rev_src [ ("scale", "i,2") ] in
  let strided =
    count gen (function Ast.Loop l -> not (Mpz.is_one l.Ast.step) | _ -> false)
  in
  let lets = count gen (function Ast.Let _ -> true | _ -> false) in
  Alcotest.(check bool) "strided loop" true (strided >= 1);
  Alcotest.(check bool) "let binding" true (lets >= 1);
  check_equiv "scaled" src gen;
  check_equiv "scaled (re-parsed)" src (roundtrip "scaled" gen)

(* ---- bounded execution (the fuzzing oracle's anti-hang contract) ---- *)

let test_step_limit () =
  let prog = Parser.parse_exn Px.simplified_cholesky in
  (* unbounded and generous bounds agree *)
  let full = Interp.run prog ~params:[ ("N", 5) ] in
  let bounded = Interp.run ~max_steps:100_000 prog ~params:[ ("N", 5) ] in
  Alcotest.(check bool) "bounded run matches" true (Interp.stores_equal full bounded);
  (* a tiny allowance must raise, not spin *)
  (match Interp.run ~max_steps:3 prog ~params:[ ("N", 5) ] with
  | _ -> Alcotest.fail "expected Step_limit"
  | exception Interp.Step_limit n -> Alcotest.(check int) "limit echoed" 3 n);
  match Interp.equivalent ~max_steps:3 prog prog ~params:[ ("N", 5) ] with
  | _ -> Alcotest.fail "expected Step_limit from equivalent"
  | exception Interp.Step_limit _ -> ()

(* ---- the staged runner against the reference walker ---- *)

type 'a outcome = Done of 'a | Limit of int | Refused

let outcome f =
  match f () with
  | v -> Done v
  | exception Interp.Step_limit n -> Limit n
  | exception Invalid_argument _ -> Refused

let describe = function Done _ -> "done" | Limit n -> Printf.sprintf "step limit %d" n | Refused -> "refused"

(* The accesses a run makes before it ends, however it ends. *)
let walker_trace ?max_steps prog ~params =
  let acc = ref [] in
  let trace (a : Walker.access) = acc := (a.Walker.array, a.Walker.index, a.Walker.kind) :: !acc in
  let o = outcome (fun () -> ignore (Walker.run ~trace ?max_steps prog ~params)) in
  (o, List.rev !acc)

let runner_trace ?max_steps prog ~params =
  let acc = ref [] in
  let hook name idx kind = acc := (name, Array.to_list idx, kind) :: !acc in
  let o = outcome (fun () -> Interp.trace ?max_steps hook prog ~params) in
  (o, List.rev !acc)

let agree name prog ~params ~max_steps =
  let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) name in
  (* stores, bit for bit *)
  (match
     ( outcome (fun () -> Walker.run ?max_steps prog ~params),
       outcome (fun () -> Interp.run ?max_steps prog ~params) )
   with
  | Done w, Done r -> (
      match Interp.store_diff w r with Ok () -> () | Error d -> fail "stores differ: %s" d)
  | w, r -> if describe w <> describe r then fail "walker %s, runner %s" (describe w) (describe r));
  (* traces, element by element, up to wherever the run stops *)
  let wo, wt = walker_trace ?max_steps prog ~params and ro, rt = runner_trace ?max_steps prog ~params in
  if describe wo <> describe ro then fail "trace: walker %s, runner %s" (describe wo) (describe ro);
  if wt <> rt then
    fail "traces differ (%d vs %d accesses)" (List.length wt) (List.length rt);
  (* extents: the per-dimension hull of the walker's trace *)
  (match (wo, outcome (fun () -> Interp.extents ?max_steps prog ~params)) with
  | Done (), Done got ->
      let hull = Hashtbl.create 8 in
      List.iter
        (fun (name, idx, _) ->
          let key = (name, List.length idx) in
          let lo, hi = Option.value (Hashtbl.find_opt hull key) ~default:(idx, idx) in
          Hashtbl.replace hull key (List.map2 min lo idx, List.map2 max hi idx))
        wt;
      let expected =
        Hashtbl.fold (fun (name, _) (lo, hi) acc -> (name, lo, hi) :: acc) hull []
        |> List.sort (fun (a, lo, _) (b, lo', _) -> compare (a, List.length lo) (b, List.length lo'))
      in
      let got = List.map (fun (name, lo, hi) -> (name, Array.to_list lo, Array.to_list hi)) got in
      if got <> expected then fail "extents differ from the hull of the walker's trace"
  | w, r -> if describe w <> describe r then fail "extents: walker %s, runner %s" (describe w) (describe r));
  (* statement-instance counts *)
  if max_steps = None then begin
    let expected = outcome (fun () -> List.length (Meval.enumerate prog ~params)) in
    match outcome (fun () -> Interp.operation_count prog ~params) with
    | got when got = expected -> ()
    | Done got -> fail "operation_count %d, enumerate %s" got (describe expected)
    | got -> fail "operation_count %s, enumerate %s" (describe got) (describe expected)
  end;
  true

let transformed prog tf =
  let ctx = Inl.analyze prog in
  match Tf.materialize ctx tf with
  | Ok m -> Result.to_option (Inl.transform ctx m)
  | Error _ -> None

(* Wraps the nest in [do zz = 0..2 / let zq = zz/2]: the body runs once,
   then the quotient of 1 by 2 is not exact. *)
let inexact_let (prog : Ast.program) =
  let zz = Linexpr.var "zz" in
  let body = [ Ast.Let ("zq", { Ast.num = zz; den = Mpz.of_int 2 }, prog.Ast.nest) ] in
  { prog with Ast.nest = [ Ast.simple_loop "zz" (Ast.bterm_int 0) (Ast.bterm_int 2) body ] }

let walker_prop (seed, index, n, steps) =
  let prog, tf = Gen.case ~seed ~index in
  let params p = List.map (fun x -> (x, n)) p.Ast.params in
  let cases =
    ("source", prog) :: ("inexact let", inexact_let prog)
    :: (match transformed prog tf with Some p -> [ ("transformed", p) ] | None -> [])
  in
  List.for_all
    (fun (name, p) ->
      agree name p ~params:(params p) ~max_steps:None
      && agree (name ^ ", bounded") p ~params:(params p) ~max_steps:(Some steps))
    cases

let walker_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"runner agrees with the reference walker" ~count:60
       QCheck2.Gen.(quad (int_bound 9) (int_bound 99) (int_range 1 5) (int_bound 400))
       walker_prop)

(* Bound terms with denominators, over negative and positive numerators,
   under natural and covering combiners: the rounding generated code
   relies on, which random recipes seldom produce. *)
let rounding_src =
  "params N\n\
   do I = max(ceildiv(N + 1, 2), 1)..min(floordiv(3*N - 1, 2), N + 3)\n\
  \  do J = min(ceildiv(I - 5, 3), 0)..max(floordiv(I, 2), 1)\n\
  \    S1: A(I,J) = A(I-1,J) + J\n\
  \  enddo\n\
   enddo\n"

let test_rounding () =
  let prog = Parser.parse_exn rounding_src in
  List.iter
    (fun n ->
      ignore (agree (Printf.sprintf "N=%d" n) prog ~params:[ ("N", n) ] ~max_steps:None))
    [ 1; 2; 3; 4; 7; 8 ]

let test_inexact_let_refused () =
  let prog = inexact_let (Parser.parse_exn "params N\ndo I = 1..N\n  S1: A(I) = A(I) + 1\nenddo\n") in
  match Interp.run prog ~params:[ ("N", 3) ] with
  | _ -> Alcotest.fail "a non-exact let must be refused"
  | exception Invalid_argument m ->
      Alcotest.(check string) "message" "Interp.run: let zq: 1 not divisible by 2" m

(* ---- allocation guard ----

   Minor-heap words per statement instance of one untraced run of a 2-D
   stencil (three reads and a write per instance) at N=64 on one domain.
   What is left is per cell, not per access: the public store's keys
   and entries, and the index list each first read hands to [init] —
   34.6 words at the time of writing; the bound is twice that.  The
   reference walker allocates 418.6. *)
let words_per_instance_bound = 70.

let test_allocation_guard () =
  let prog =
    Parser.parse_exn
      "params N\n\
       do I = 1..N\n\
      \  do J = 1..N\n\
      \    S1: A(I,J) = A(I-1,J) + A(I,J-1) + A(I,J)\n\
      \  enddo\n\
       enddo\n"
  in
  let params = [ ("N", 64) ] in
  let instances = Interp.operation_count prog ~params in
  let before = Gc.minor_words () in
  ignore (Interp.run prog ~params);
  let words = (Gc.minor_words () -. before) /. float_of_int instances in
  if words > words_per_instance_bound then
    Alcotest.failf "%.1f minor words per statement instance (bound %.0f)" words words_per_instance_bound

let () =
  Alcotest.run "interp"
    [
      ( "generated-shapes",
        [
          Alcotest.test_case "augmented output equivalent" `Quick test_augmented_equivalent;
          Alcotest.test_case "augmentation structure" `Quick test_augmented_structure;
          Alcotest.test_case "singular guards preserve counts" `Quick test_singular_guard_counts;
          Alcotest.test_case "reversal: negative bounds" `Quick test_reverse_negative_bounds;
          Alcotest.test_case "scaling: strides and lets" `Quick test_scale_strided;
        ] );
      ("bounded-execution", [ Alcotest.test_case "step limit" `Quick test_step_limit ]);
      ( "walker",
        [
          walker_property;
          Alcotest.test_case "rounded and covering bounds" `Quick test_rounding;
          Alcotest.test_case "non-exact let refused" `Quick test_inexact_let_refused;
        ] );
      ("allocation", [ Alcotest.test_case "minor words per instance" `Quick test_allocation_guard ]);
    ]
