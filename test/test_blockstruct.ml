(* Tests for block-structure recovery (Section 5.2, Figures 5-6): the
   edge rows must encode per-node child permutations, the transformed AST
   is reconstructed from them, and malformed matrices are rejected with
   diagnostics. *)

module Mpz = Inl_num.Mpz
module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout
module Blockstruct = Inl.Blockstruct

let cholesky = Inl.analyze_source Inl_kernels.Paper_examples.cholesky
let simple = Inl.analyze_source Inl_kernels.Paper_examples.simplified_cholesky

let test_identity_structure () =
  match Blockstruct.infer simple.Inl.layout (Mat.identity 4) with
  | Error m -> Alcotest.fail m
  | Ok st ->
      Alcotest.(check bool) "same program" true
        (st.Blockstruct.new_program = simple.Inl.program);
      Alcotest.(check (array int)) "identity position map" [| 0; 1; 2; 3 |]
        st.Blockstruct.old_to_new

let test_reorder_structure () =
  let r = Inl.Tmat.reorder simple.Inl.layout ~parent:[ 0 ] ~perm:[ 1; 0 ] in
  match Blockstruct.infer simple.Inl.layout r with
  | Error m -> Alcotest.fail m
  | Ok st -> (
      (* child order flips: J-loop first *)
      (match st.Blockstruct.new_program.Ast.nest with
      | [ Ast.Loop l ] -> (
          match l.Ast.body with
          | [ Ast.Loop _; Ast.Stmt s ] -> Alcotest.(check string) "S1 second" "S1" s.Ast.label
          | _ -> Alcotest.fail "expected [loop; stmt]")
      | _ -> Alcotest.fail "expected one outer loop");
      (* statement paths remap *)
      Alcotest.(check (list int)) "S1 path" [ 0; 1 ] (Blockstruct.map_path st [ 0; 0 ]);
      Alcotest.(check (list int)) "S2 path" [ 0; 0; 0 ] (Blockstruct.map_path st [ 0; 1; 0 ]))

let test_wrong_size_rejected () =
  match Blockstruct.infer simple.Inl.layout (Mat.identity 5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong dimension must be rejected"

let test_broken_edge_square_rejected () =
  (* zero out an edge row: no longer a permutation *)
  let m = Mat.identity 4 in
  Mat.set m 1 1 Mpz.zero;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Blockstruct.infer simple.Inl.layout m with
  | Error msg -> Alcotest.(check bool) "mentions permutation" true (contains msg "permutation")
  | Ok _ -> Alcotest.fail "broken edge square must be rejected");
  (* an edge row referencing a loop column is not structural *)
  let m2 = Mat.identity 4 in
  Mat.set m2 1 0 Mpz.one;
  match Blockstruct.infer simple.Inl.layout m2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "edge row with loop-column entry must be rejected"

let test_cholesky_structures () =
  (* all 6 child permutations of the Cholesky root are recoverable and
     distinct *)
  let rs = Inl.Completion.reorder_matrices cholesky.Inl.layout in
  Alcotest.(check int) "6 structures" 6 (List.length rs);
  let programs =
    List.map
      (fun r ->
        match Blockstruct.infer cholesky.Inl.layout r with
        | Ok st -> Inl.Pp.program_to_string st.Blockstruct.new_program
        | Error m -> Alcotest.fail m)
      rs
  in
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare programs))

let test_new_layout_consistency () =
  (* position mapping is a bijection consistent with the new layout's
     position kinds *)
  let r = Inl.Tmat.reorder cholesky.Inl.layout ~parent:[ 0 ] ~perm:[ 2; 0; 1 ] in
  match Blockstruct.infer cholesky.Inl.layout r with
  | Error m -> Alcotest.fail m
  | Ok st ->
      let n = Layout.size cholesky.Inl.layout in
      let seen = Array.make n false in
      Array.iteri
        (fun old_idx new_idx ->
          if new_idx >= 0 then begin
            Alcotest.(check bool) "in range" true (new_idx < n);
            Alcotest.(check bool) "injective" false seen.(new_idx);
            seen.(new_idx) <- true;
            let kind_of = function Layout.Ploop _ -> `L | Layout.Pedge _ -> `E in
            Alcotest.(check bool) "kind preserved" true
              (kind_of cholesky.Inl.layout.Layout.positions.(old_idx)
              = kind_of st.Blockstruct.new_layout.Layout.positions.(new_idx))
          end)
        st.Blockstruct.old_to_new;
      (* The new program is the old one with its children placed by the
         permutations, and the new layout is that program's layout.
         Matrices whose edge squares are all identities (interchange,
         skew, reversal) share the old program and layout outright. *)
      let layout = cholesky.Inl.layout and prog = cholesky.Inl.program in
      let rebuilt (st : Blockstruct.t) =
        let rec region path children =
          if children = [] then []
          else begin
            let perm = List.assoc path st.Blockstruct.perms in
            let placed = Array.of_list children in
            List.iteri
              (fun i c ->
                placed.(perm.(i)) <-
                  (match c with
                  | Ast.Loop l -> Ast.Loop { l with Ast.body = region (path @ [ i ]) l.Ast.body }
                  | c -> c))
              children;
            Array.to_list placed
          end
        in
        { prog with Ast.nest = region [] prog.Ast.nest }
      in
      let identities = ref 0 and others = ref 0 in
      List.iter
        (fun m ->
          match Blockstruct.infer layout m with
          | Error _ -> ()
          | Ok st ->
              let p = rebuilt st in
              Alcotest.(check bool) "new program rebuilt" true (st.Blockstruct.new_program = p);
              Alcotest.(check bool) "new layout of the new program" true
                (st.Blockstruct.new_layout = Layout.of_program ~padding:layout.Layout.padding p);
              let is_identity perm =
                Array.for_all2 ( = ) perm (Array.init (Array.length perm) Fun.id)
              in
              if List.for_all (fun (_, perm) -> is_identity perm) st.Blockstruct.perms then begin
                incr identities;
                Alcotest.(check bool) "old program shared" true
                  (st.Blockstruct.new_program == prog);
                Alcotest.(check bool) "old layout shared" true (st.Blockstruct.new_layout == layout)
              end
              else incr others)
        (r
        :: List.filter_map
             (fun steps ->
               Result.to_option
                 (Inl_fuzz.Tf.materialize cholesky { Inl_fuzz.Tf.steps; partial = []; edits = [] }))
             (Inl_search.Moves.enumerate prog));
      Alcotest.(check bool) "both kinds covered" true (!identities > 0 && !others > 0)

let () =
  Alcotest.run "blockstruct"
    [
      ( "blockstruct",
        [
          Alcotest.test_case "identity" `Quick test_identity_structure;
          Alcotest.test_case "reorder recovery" `Quick test_reorder_structure;
          Alcotest.test_case "wrong size rejected" `Quick test_wrong_size_rejected;
          Alcotest.test_case "broken edge rows rejected" `Quick test_broken_edge_square_rejected;
          Alcotest.test_case "all Cholesky structures" `Quick test_cholesky_structures;
          Alcotest.test_case "position map consistency" `Quick test_new_layout_consistency;
        ] );
    ]
