(* Unit and property tests for the interval domain that carries the
   dependence distance/direction abstraction, and for the lexicographic
   test (Definition 6) on interval boxes. *)

module Mpz = Inl_num.Mpz
module I = Inl_presburger.Interval

let t = Alcotest.testable I.pp I.equal
let z = Mpz.of_int

let test_symbols () =
  Alcotest.(check string) "point" "3" (I.to_symbol (I.of_int 3));
  Alcotest.(check string) "plus" "+" (I.to_symbol I.plus);
  Alcotest.(check string) "minus" "-" (I.to_symbol I.minus);
  Alcotest.(check string) "star" "*" (I.to_symbol I.top);
  Alcotest.(check string) "nonneg" "+0" (I.to_symbol (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check string) "nonpos" "-0" (I.to_symbol (I.make NegInf (Fin Mpz.zero)));
  Alcotest.(check string) "range" "[2,5]" (I.to_symbol (I.of_ints 2 5));
  Alcotest.(check string) "ray" "[2,oo)" (I.to_symbol (I.make (Fin (z 2)) PosInf))

let test_predicates () =
  Alcotest.(check bool) "plus positive" true (I.definitely_positive I.plus);
  Alcotest.(check bool) "nonneg not positive" false
    (I.definitely_positive (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check bool) "nonneg is nonneg" true (I.definitely_nonneg (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check bool) "zero point" true (I.definitely_zero I.zero);
  Alcotest.(check bool) "minus negative" true (I.definitely_negative I.minus);
  Alcotest.(check bool) "empty not positive" false
    (I.definitely_positive (I.make PosInf NegInf));
  Alcotest.(check bool) "empty is empty" true (I.is_empty (I.of_ints 3 2));
  Alcotest.(check bool) "contains" true (I.contains (I.of_ints (-2) 2) Mpz.zero);
  Alcotest.(check bool) "not contains" false (I.contains I.plus Mpz.zero)

let test_arithmetic () =
  Alcotest.(check t) "add points" (I.of_int 5) (I.add (I.of_int 2) (I.of_int 3));
  Alcotest.(check t) "add ray" (I.make (Fin (z 3)) PosInf) (I.add I.plus (I.of_int 2));
  Alcotest.(check t) "plus + minus = star" I.top (I.add I.plus I.minus);
  Alcotest.(check t) "neg plus" I.minus (I.neg I.plus);
  Alcotest.(check t) "scale 0" I.zero (I.scale Mpz.zero I.top);
  Alcotest.(check t) "scale -1 flips" I.minus (I.scale Mpz.minus_one I.plus);
  Alcotest.(check t) "scale 2 range" (I.of_ints (-4) 6) (I.scale Mpz.two (I.of_ints (-2) 3))

let test_lattice () =
  Alcotest.(check t) "hull" (I.of_ints (-1) 7) (I.hull (I.of_ints (-1) 2) (I.of_ints 5 7));
  Alcotest.(check t) "hull with empty" (I.of_ints 1 2)
    (I.hull (I.make PosInf NegInf) (I.of_ints 1 2));
  Alcotest.(check t) "inter" (I.of_ints 2 3) (I.inter (I.of_ints 0 3) (I.of_ints 2 9));
  Alcotest.(check bool) "disjoint inter empty" true
    (I.is_empty (I.inter (I.of_ints 0 1) (I.of_ints 3 4)))

(* soundness of the interval ops w.r.t. concrete points *)
let gen_small_interval =
  let open QCheck2.Gen in
  let* a = int_range (-6) 6 in
  let* b = int_range (-6) 6 in
  let* kind = int_range 0 3 in
  return
    (match kind with
    | 0 -> I.of_ints (min a b) (max a b)
    | 1 -> I.make (Fin (z (min a b))) PosInf
    | 2 -> I.make NegInf (Fin (z (max a b)))
    | _ -> I.top)

let points iv =
  List.filter (fun x -> I.contains iv (z x)) (List.init 31 (fun i -> i - 15))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

(* Definition 6's test against brute force: a box of 1-3 small bounded
   intervals, every point of it classified by the sign of its first
   non-zero coordinate. *)
let gen_box =
  let open QCheck2.Gen in
  list_size (int_range 1 3)
    (let* a = int_range (-2) 2 in
     let* b = int_range (-2) 2 in
     return (I.of_ints (min a b) (max a b)))

let lex_sign point =
  match List.find_opt (fun x -> x <> 0) point with Some x -> compare x 0 | None -> 0

let rec box_points = function
  | [] -> [ [] ]
  | iv :: rest ->
      List.concat_map (fun x -> List.map (fun p -> x :: p) (box_points rest)) (points iv)

let classify_exact box =
  let signs = List.map lex_sign (box_points box) in
  let c = Inl.Legality.classify box in
  (c = Inl.Legality.Violated) = List.exists (fun s -> s < 0) signs
  && (c = Inl.Legality.Satisfied) = List.for_all (fun s -> s > 0) signs

let props =
  [
    prop "lexicographic classify exact on boxes" gen_box classify_exact;
    prop "add sound on points" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all
          (fun x ->
            List.for_all (fun y -> I.contains (I.add a b) (z (x + y))) (points b))
          (points a));
    prop "scale sound on points"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range (-3) 3) gen_small_interval)
      (fun (k, a) -> List.for_all (fun x -> I.contains (I.scale (z k) a) (z (k * x))) (points a));
    prop "hull contains both" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all (fun x -> I.contains (I.hull a b) (z x)) (points a @ points b));
    prop "inter is conjunction" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all
          (fun x ->
            I.contains (I.inter a b) (z x) = (I.contains a (z x) && I.contains b (z x)))
          (List.init 31 (fun i -> i - 15)));
  ]

let () =
  Alcotest.run "interval"
    [
      ( "interval",
        [
          Alcotest.test_case "paper symbols" `Quick test_symbols;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "lattice ops" `Quick test_lattice;
        ] );
      ("properties", props);
    ]
