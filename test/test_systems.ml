(* Tests for the supporting systems: interpreter, cache simulator, native
   kernels, and the baseline comparators (E13/E14 machinery). *)

module Ast = Inl_ir.Ast
module Parser = Inl_ir.Parser
module Layout = Inl_instance.Layout
module Analysis = Inl_depend.Analysis
module Interp = Inl_interp.Interp
module Cachesim = Inl_cachesim.Cachesim
module Cholesky = Inl_kernels.Cholesky
module Lu = Inl_kernels.Lu
module Px = Inl_kernels.Paper_examples
module Baseline = Inl_baseline.Baseline

(* ---- interpreter ---- *)

let test_interp_basic () =
  let prog = Parser.parse_exn "params N\ndo I = 1..N\n S1: A(I) = 2 * I + 1\nenddo" in
  let store = Interp.run prog ~params:[ ("N", 4) ] in
  for i = 1 to 4 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "A(%d)" i)
      (float_of_int ((2 * i) + 1))
      (Hashtbl.find store ("A", [ i ]))
  done

let test_interp_recurrence () =
  (* B(I) = B(I-1) + 1 accumulates; B(0) is an input cell *)
  let prog = Parser.parse_exn "params N\ndo I = 1..N\n S1: B(I) = B(I-1) + 1\nenddo" in
  let init name idx = if name = "B" && idx = [ 0 ] then 10.0 else 0.0 in
  let store = Interp.run ~init prog ~params:[ ("N", 5) ] in
  Alcotest.(check (float 1e-12)) "B(5)" 15.0 (Hashtbl.find store ("B", [ 5 ]))

let test_interp_guards_lets () =
  let prog =
    Parser.parse_exn "params N\ndo I = 1..N\n S1: A(I) = I\nenddo"
  in
  (* hand-build: if (I mod 2 = 0) then via Let quotient *)
  ignore prog;
  let src = Interp.run (Parser.parse_exn "params N\ndo I = 1..N\n A(2*I) = I\nenddo") ~params:[ ("N", 3) ] in
  Alcotest.(check (float 1e-12)) "A(4)" 2.0 (Hashtbl.find src ("A", [ 4 ]))

let test_interp_calls_deterministic () =
  let p = Parser.parse_exn "params N\ndo I = 1..N\n A(I) = f(I) + g()\nenddo" in
  let s1 = Interp.run p ~params:[ ("N", 3) ] and s2 = Interp.run p ~params:[ ("N", 3) ] in
  Alcotest.(check bool) "deterministic" true (Interp.stores_equal s1 s2)

let test_interp_equivalence_detects () =
  let p1 = Parser.parse_exn "params N\ndo I = 1..N\n A(I) = I\nenddo" in
  let p2 = Parser.parse_exn "params N\ndo I = 1..N\n A(I) = I + 1\nenddo" in
  Alcotest.(check bool) "different programs differ" true
    (Interp.equivalent p1 p2 ~params:[ ("N", 2) ] |> Result.is_error)

(* interpreting the simplified-Cholesky IR matches the native kernel *)
let test_interp_matches_native () =
  let n = 6 in
  let a0 = Cholesky.random_spd n in
  let prog = Parser.parse_exn Px.cholesky in
  let init name idx =
    match (name, idx) with
    | "A", [ i; j ] -> a0.(i - 1).(j - 1)
    | _ -> 0.0
  in
  let store = Interp.run ~init prog ~params:[ ("N", n) ] in
  let native = Cholesky.copy_matrix a0 in
  Cholesky.kji native;
  for i = 1 to n do
    for j = 1 to i do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "L(%d,%d)" i j)
        native.(i - 1).(j - 1)
        (Hashtbl.find store ("A", [ i; j ]))
    done
  done

(* all six Cholesky IR variants are exactly equivalent programs *)
let test_ir_variants_equivalent () =
  let base = Parser.parse_exn Px.cholesky_kji in
  List.iter
    (fun (name, src) ->
      let p = Parser.parse_exn src in
      match Interp.equivalent base p ~params:[ ("N", 7) ] with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s differs: %s" name d)
    Px.cholesky_ir_variants

(* ---- native kernels ---- *)

let test_cholesky_variants_agree () =
  let a0 = Cholesky.random_spd 24 in
  let reference = Cholesky.copy_matrix a0 in
  Cholesky.kji reference;
  Alcotest.(check bool) "residual small" true (Cholesky.residual a0 reference < 1e-8);
  List.iter
    (fun (v : Cholesky.variant) ->
      let m = Cholesky.copy_matrix a0 in
      v.run m;
      Alcotest.(check (float 0.0)) (v.name ^ " identical to kji") 0.0
        (Cholesky.max_abs_diff reference m))
    Cholesky.variants

let test_lu_variants_agree () =
  let a0 = Lu.diagonally_dominant 16 in
  let x = Array.map Array.copy a0 and y = Array.map Array.copy a0 in
  Lu.kij x;
  Lu.jki y;
  Alcotest.(check (float 0.0)) "kij = jki exactly" 0.0 (Lu.max_abs_diff x y)

(* ---- cache simulator ---- *)

let test_cache_basics () =
  let c = Cachesim.create (Cachesim.direct_mapped ~capacity_bytes:128 ~line_bytes:32) in
  Alcotest.(check bool) "cold miss" false (Cachesim.access c 0);
  Alcotest.(check bool) "same line hits" true (Cachesim.access c 24);
  Alcotest.(check bool) "next line misses" false (Cachesim.access c 32);
  (* 4 sets; address 0 and 128 conflict in a direct-mapped cache *)
  Alcotest.(check bool) "conflict evicts" false (Cachesim.access c 128);
  Alcotest.(check bool) "original evicted" false (Cachesim.access c 0);
  let s = Cachesim.stats c in
  Alcotest.(check int) "accesses" 5 s.Cachesim.accesses;
  Alcotest.(check int) "hits" 1 s.Cachesim.hits

let test_cache_associativity () =
  (* two-way: 0 and 128 can coexist in the same set *)
  let c = Cachesim.create (Cachesim.set_associative ~capacity_bytes:256 ~line_bytes:32 ~assoc:2) in
  ignore (Cachesim.access c 0);
  ignore (Cachesim.access c 128);
  Alcotest.(check bool) "0 still resident" true (Cachesim.access c 0);
  Alcotest.(check bool) "128 still resident" true (Cachesim.access c 128)

let test_cache_lru () =
  let c = Cachesim.create (Cachesim.set_associative ~capacity_bytes:64 ~line_bytes:32 ~assoc:2) in
  (* one set, two ways; touch a, b, a, then c evicts b (LRU) *)
  ignore (Cachesim.access c 0);
  ignore (Cachesim.access c 32);
  ignore (Cachesim.access c 0);
  ignore (Cachesim.access c 64);
  Alcotest.(check bool) "a resident" true (Cachesim.access c 0);
  Alcotest.(check bool) "b evicted" false (Cachesim.access c 32)

let test_address_map () =
  let m = Cachesim.Address_map.create [ ("A", [ 3; 3 ]); ("B", [ 7 ]) ] in
  Alcotest.(check int) "A(0,0)" 0 (Cachesim.Address_map.address m "A" [| 0; 0 |]);
  Alcotest.(check int) "A(1,0)" 32 (Cachesim.Address_map.address m "A" [| 1; 0 |]);
  Alcotest.(check int) "B base after A" (16 * 8) (Cachesim.Address_map.address m "B" [| 0 |]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Address_map: A subscript 4 out of [0,3]") (fun () ->
      ignore (Cachesim.Address_map.address m "A" [| 4; 0 |]))

let test_simulate_locality () =
  (* row-major traversal has far fewer misses than column-major *)
  let row = Parser.parse_exn "params N\ndo I = 0..N\n do J = 0..N\n  A(I,J) = 1\n enddo\nenddo" in
  let col = Parser.parse_exn "params N\ndo J = 0..N\n do I = 0..N\n  A(I,J) = 1\n enddo\nenddo" in
  let n = 63 in
  let cfg = Cachesim.direct_mapped ~capacity_bytes:1024 ~line_bytes:64 in
  let arrays = [ ("A", [ n; n ]) ] in
  let sr = Cachesim.simulate_program cfg arrays row ~params:[ ("N", n) ] in
  let sc = Cachesim.simulate_program cfg arrays col ~params:[ ("N", n) ] in
  Alcotest.(check bool) "row-major misses less" true
    (sr.Cachesim.misses * 4 < sc.Cachesim.misses)

(* ---- baselines ---- *)

let test_perfect_only_rejects_imperfect () =
  let prog = Parser.parse_exn Px.simplified_cholesky in
  let t = Inl_linalg.Mat.identity 4 in
  Alcotest.(check bool) "rejected" true (Baseline.perfect_only prog t = Baseline.Not_perfect)

let test_perfect_only_on_perfect () =
  let prog = Parser.parse_exn Px.cholesky_update_kernel in
  let ident = Inl_linalg.Mat.identity 3 in
  Alcotest.(check bool) "identity legal" true (Baseline.perfect_only prog ident = Baseline.Perfect_legal);
  let layout = Layout.of_program prog in
  let rev_k = Inl.Tmat.reversal layout "K" in
  (match Baseline.perfect_only prog rev_k with
  | Baseline.Perfect_illegal _ -> ()
  | _ -> Alcotest.fail "reversing K must be illegal")

(* E14: distribution is illegal on simplified Cholesky but legal on an
   independent pair. *)
let test_distribution () =
  let ctx = Inl.analyze_source Px.simplified_cholesky in
  (match Baseline.Distribution.legal ctx.Inl.layout ctx.Inl.deps ~at:1 with
  | Ok () -> Alcotest.fail "distribution must be illegal on Cholesky"
  | Error _ -> ());
  let indep =
    Inl.analyze_source "params N\ndo I = 1..N\n S1: B(I) = 2 * B(I)\n do J = 1..N\n  S2: A(I,J) = A(I,J) + 1\n enddo\nenddo"
  in
  (match Baseline.Distribution.legal indep.Inl.layout indep.Inl.deps ~at:1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "distribution should be legal: %s" msg);
  (* and the distributed program is equivalent *)
  let dist = Baseline.Distribution.apply indep.Inl.layout ~at:1 in
  match Interp.equivalent indep.Inl.program dist ~params:[ ("N", 5) ] with
  | Ok () -> ()
  | Error d -> Alcotest.failf "distributed program differs: %s" d

(* E14: sinking loses the I = N iteration of S1 in simplified Cholesky
   (the inner loop J = I+1..N is empty there), while the direct framework
   transforms the program correctly. *)
let test_sinking_defect () =
  let ctx = Inl.analyze_source Px.simplified_cholesky in
  match Baseline.Sinking.sink_into_following_loop ctx.Inl.program with
  | Error msg -> Alcotest.failf "sinking construction failed: %s" msg
  | Ok sunk -> (
      match Interp.equivalent ctx.Inl.program sunk ~params:[ ("N", 4) ] with
      | Ok () -> Alcotest.fail "sinking should lose the sqrt at I = N"
      | Error _ -> ())

let () =
  Alcotest.run "systems"
    [
      ( "interp",
        [
          Alcotest.test_case "basic" `Quick test_interp_basic;
          Alcotest.test_case "recurrence" `Quick test_interp_recurrence;
          Alcotest.test_case "strided writes" `Quick test_interp_guards_lets;
          Alcotest.test_case "uninterpreted calls deterministic" `Quick test_interp_calls_deterministic;
          Alcotest.test_case "equivalence detects differences" `Quick test_interp_equivalence_detects;
          Alcotest.test_case "IR Cholesky matches native" `Quick test_interp_matches_native;
          Alcotest.test_case "six IR variants equivalent" `Quick test_ir_variants_equivalent;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "six Cholesky variants agree exactly" `Quick test_cholesky_variants_agree;
          Alcotest.test_case "LU variants agree exactly" `Quick test_lu_variants_agree;
        ] );
      ( "cachesim",
        [
          Alcotest.test_case "hits, misses, conflicts" `Quick test_cache_basics;
          Alcotest.test_case "associativity" `Quick test_cache_associativity;
          Alcotest.test_case "LRU replacement" `Quick test_cache_lru;
          Alcotest.test_case "address map" `Quick test_address_map;
          Alcotest.test_case "row- vs column-major locality" `Quick test_simulate_locality;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "perfect-only framework rejects imperfect nests" `Quick
            test_perfect_only_rejects_imperfect;
          Alcotest.test_case "perfect-only framework on the update kernel" `Quick
            test_perfect_only_on_perfect;
          Alcotest.test_case "distribution legality (E14)" `Quick test_distribution;
          Alcotest.test_case "sinking loses iterations (E14)" `Quick test_sinking_defect;
        ] );
    ]
