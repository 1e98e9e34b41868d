(* Unit and property tests for the static reuse analysis (Inl_reuse):
   pinned per-dimension classes on the paper's kji Cholesky, the
   canonicalization that makes signatures invariant under
   schedule-preserving row scaling (QCheck), the cross-check of the
   static ranking against the cache simulator on the six classical
   Cholesky orders, per-array miss attribution as ground truth for the
   spatial/streaming distinction, and the process-wide signature memo. *)

module Reuse = Inl_reuse.Reuse
module Memo = Inl_diag.Memo
module Px = Inl_kernels.Paper_examples
module Cachesim = Inl_cachesim.Cachesim
module Tf = Inl_fuzz.Tf
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Mpz = Inl_num.Mpz
module Layout = Inl_instance.Layout

let parse = Inl_ir.Parser.parse_exn

let structure_of ctx m =
  match Inl.check ctx m with
  | Inl.Legality.Legal { structure; _ } -> structure
  | Inl.Legality.Illegal r -> Alcotest.failf "expected legal: %s" r

let identity_sig ?line_elems ?work_budget src =
  let ctx = Inl.analyze (parse src) in
  let n = Layout.size ctx.Inl.layout in
  (ctx, Reuse.signature ?line_elems ?work_budget ctx (structure_of ctx (Mat.identity n)))

(* ---- pinned classes on the motivating kernel ---- *)

let cls = Alcotest.testable (fun fmt c ->
    Format.pp_print_string fmt
      (match c with
      | Reuse.Temporal -> "temporal"
      | Reuse.Spatial s -> Printf.sprintf "spatial(%d)" s
      | Reuse.NoReuse -> "none"
      | Reuse.Unknown -> "unknown"))
    (fun a b -> a = b)

let find_ref (sg : Reuse.t) label text =
  let st = List.find (fun (s : Reuse.stmt_sig) -> s.Reuse.label = label) sg.Reuse.stmts in
  List.find (fun (r : Reuse.ref_sig) -> r.Reuse.text = text) st.Reuse.refs

let test_kji_classes () =
  let _, sg = identity_sig Px.cholesky_kji in
  (* S3: A(I2,J) = A(I2,J) - A(I2,K) * A(J,K) under K,J,I2: the updated
     cell streams along the innermost column loop I2 but is revisited
     across K; A(J,K) is innermost-invariant *)
  let upd = find_ref sg "S3" "A(I2,J)" in
  Alcotest.(check (array cls)) "A(I2,J) classes"
    [| Reuse.Temporal; Reuse.Spatial 1; Reuse.NoReuse |]
    upd.Reuse.classes;
  Alcotest.(check bool) "A(I2,J) written" true upd.Reuse.is_write;
  let pivot = find_ref sg "S3" "A(J,K)" in
  Alcotest.(check (array cls)) "A(J,K) classes"
    [| Reuse.Spatial 1; Reuse.NoReuse; Reuse.Temporal |]
    pivot.Reuse.classes;
  Alcotest.(check int) "nothing unknown" 0 (Reuse.unknown_refs sg)

let test_scalar_and_param_refs () =
  (* a loop-invariant reference is temporal in every dimension *)
  let _, sg =
    identity_sig "params N\ndo I = 1..N\n  do J = 1..N\n    S1: B(I,J) = B(1,1) + B(I,J)\n  enddo\nenddo\n"
  in
  let inv = find_ref sg "S1" "B(1,1)" in
  Alcotest.(check (array cls)) "B(1,1) invariant"
    [| Reuse.Temporal; Reuse.Temporal |]
    inv.Reuse.classes

(* ---- signature invariance under schedule-preserving row scaling ---- *)

let variants = Array.of_list Px.cholesky_ir_variants

(* Scale only the rows producing loop coordinates: edge coordinates are
   0/1 path labels whose rows blockstruct recovery requires verbatim, so
   "schedule-preserving row scaling" ranges over loop rows.  (Both base
   matrices below permute loop rows among loop positions only, so a row
   index in [loop_positions] is a loop row of the base too.) *)
let scale_loop_rows layout m scales =
  let m' = Mat.copy m in
  List.iteri
    (fun k i ->
      let c = List.nth scales (k mod List.length scales) in
      m'.(i) <- Vec.scale_int c m'.(i))
    (Layout.loop_positions layout);
  m'

let scaling_prop (which, scales) =
  let scales = List.map (fun s -> 1 + (abs s mod 4)) scales in
  let scales = if scales = [] then [ 1 ] else scales in
  let name, src = variants.(which mod Array.length variants) in
  let ctx = Inl.analyze (parse src) in
  let n = Layout.size ctx.Inl.layout in
  let bases =
    Mat.identity n
    ::
    (if name = "kji" then
       let steps = [ Inl.Pipeline.Interchange ("J", "I2") ] in
       match Tf.materialize ctx { Tf.steps; partial = []; edits = [] } with
       | Ok m -> [ m ]
       | Error _ -> []
     else [])
  in
  List.for_all
    (fun base ->
      let sg = Reuse.signature ctx (structure_of ctx base) in
      let sg' = Reuse.signature ctx (structure_of ctx (scale_loop_rows ctx.Inl.layout base scales)) in
      if not (Reuse.equal sg sg') then
        QCheck2.Test.fail_reportf "%s: scaling by %s changed the signature\n%s\nvs\n%s" name
          (String.concat "," (List.map string_of_int scales))
          (Reuse.key sg) (Reuse.key sg');
      if Reuse.score sg <> Reuse.score sg' then
        QCheck2.Test.fail_reportf "%s: scaling changed the score %f -> %f" name (Reuse.score sg)
          (Reuse.score sg');
      true)
    bases

let scaling_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"signatures invariant under positive row scaling" ~count:60
       QCheck2.Gen.(pair (int_bound 5) (small_list small_int))
       scaling_prop)

(* ---- static ranking vs the cache simulator ---- *)

let test_ranking_matches_cachesim () =
  (* the static tier's job is ordinal: across the six classical Cholesky
     orders, a decisively better static score must not come with more
     simulated misses.  The score models the regime where a line
     survives only until its innermost-loop reuse — so the problem size
     must be large enough that a full column of lines (N x 64B) does NOT
     fit in the cache; below that, column orders like jki enjoy spatial
     reuse carried by the *middle* loop, which the innermost-class score
     deliberately ignores (at N=48 jki simulates near-best while scoring
     worst).  N=160 against 8 KiB puts every variant in the modeled
     regime.  Tolerances: static scores within 1.1x are a tie (ikj/kij
     differ only in loop names at this granularity), and 5% slack on
     miss counts absorbs alignment noise. *)
  let n = 160 in
  let cache = Cachesim.set_associative ~capacity_bytes:8192 ~line_bytes:64 ~assoc:2 in
  let measured =
    List.map
      (fun (name, src) ->
        let ctx = Inl.analyze (parse src) in
        let size = Layout.size ctx.Inl.layout in
        let static = Reuse.static_score ctx (structure_of ctx (Mat.identity size)) in
        let stats =
          Cachesim.simulate_program cache [ ("A", [ n; n ]) ] ctx.Inl.program ~params:[ ("N", n) ]
        in
        (name, static, stats.Cachesim.misses))
      Px.cholesky_ir_variants
  in
  List.iter
    (fun (ni, si, mi) ->
      List.iter
        (fun (nj, sj, mj) ->
          if si *. 1.1 < sj && float_of_int mi > float_of_int mj *. 1.05 then
            Alcotest.failf "%s (static %.0f, misses %d) ranked better than %s (static %.0f, misses %d)"
              ni si mi nj sj mj)
        measured)
    measured;
  (* and the ranking is not vacuous: the extremes are separated *)
  let statics = List.map (fun (_, s, _) -> s) measured in
  let misses = List.map (fun (_, _, m) -> m) measured in
  Alcotest.(check bool) "static separates variants" true
    (List.fold_left Float.min infinity statics < List.fold_left Float.max neg_infinity statics);
  Alcotest.(check bool) "simulator separates variants" true
    (List.fold_left min max_int misses < List.fold_left max min_int misses)

let test_weighted_fixes_jki () =
  (* the documented blind spot of the innermost-only model, now fixed:
     at N=48 a full column of lines fits in the 8 KiB cache, so jki's
     middle-loop spatial reuse on A(I,J) is real — the simulator scores
     jki far below kji — yet both orders have identical innermost
     classes, so {!Reuse.score} ties them.  The depth-weighted score
     sees the outer-dimension reuse and breaks the tie the same way the
     simulator does. *)
  let scores src =
    let ctx = Inl.analyze (parse src) in
    let n = Layout.size ctx.Inl.layout in
    let st = structure_of ctx (Mat.identity n) in
    (Reuse.static_score ctx st, Reuse.weighted_static_score ctx st, ctx)
  in
  let base_jki, weighted_jki, ctx_jki = scores Px.cholesky_jki in
  let base_kji, weighted_kji, ctx_kji = scores Px.cholesky_kji in
  Alcotest.(check (float 0.0)) "innermost-only model ties jki and kji" base_kji base_jki;
  Alcotest.(check bool)
    (Printf.sprintf "weighted jki %.0f < weighted kji %.0f" weighted_jki weighted_kji)
    true (weighted_jki < weighted_kji);
  let n = 48 in
  let cache = Cachesim.set_associative ~capacity_bytes:8192 ~line_bytes:64 ~assoc:2 in
  let misses ctx =
    (Cachesim.simulate_program cache [ ("A", [ n; n ]) ] ctx.Inl.program ~params:[ ("N", n) ])
      .Cachesim.misses
  in
  let m_jki = misses ctx_jki and m_kji = misses ctx_kji in
  Alcotest.(check bool)
    (Printf.sprintf "simulator agrees: jki %d < kji %d misses" m_jki m_kji)
    true (m_jki < m_kji)

let test_by_array_attribution () =
  (* ground truth for the spatial/streaming distinction: in one nest,
     row-major B(I,J) rides its cache lines while C(J,I) strides
     column-wise and misses on (nearly) every access.  N is again large
     enough that C's column of lines cannot survive in the cache across
     the outer loop.  (Both arrays are written: a name that is only ever
     read parses as an uninterpreted call, not an array.) *)
  let src =
    "params N\n\
     do I = 1..N\n\
    \  do J = 1..N\n\
    \    S1: B(I,J) = B(I,J) + 1\n\
    \    S2: C(J,I) = C(J,I) + 1\n\
    \  enddo\n\
     enddo\n"
  in
  let ctx = Inl.analyze (parse src) in
  let n = 160 in
  let cache = Cachesim.set_associative ~capacity_bytes:8192 ~line_bytes:64 ~assoc:2 in
  let arrays = [ ("B", [ n; n ]); ("C", [ n; n ]) ] in
  let by_array, total = Cachesim.simulate_program_by_array cache arrays ctx.Inl.program ~params:[ ("N", n) ] in
  let b = List.assoc "B" by_array and c = List.assoc "C" by_array in
  Alcotest.(check int) "attribution is complete" total.Cachesim.accesses
    (b.Cachesim.accesses + c.Cachesim.accesses);
  Alcotest.(check int) "attributed misses sum" total.Cachesim.misses
    (b.Cachesim.misses + c.Cachesim.misses);
  Alcotest.(check bool)
    (Printf.sprintf "B miss rate %.3f << C miss rate %.3f" (Cachesim.miss_rate b) (Cachesim.miss_rate c))
    true
    (Cachesim.miss_rate c > 2.0 *. Cachesim.miss_rate b);
  (* and the static classes predict exactly this *)
  let _, sg = identity_sig src in
  let bref = find_ref sg "S1" "B(I,J)" and cref = find_ref sg "S2" "C(J,I)" in
  Alcotest.(check cls) "B innermost spatial" (Reuse.Spatial 1)
    bref.Reuse.classes.(Array.length bref.Reuse.classes - 1);
  Alcotest.(check cls) "C innermost streams" Reuse.NoReuse
    cref.Reuse.classes.(Array.length cref.Reuse.classes - 1)

(* ---- canonicalization and the budget ---- *)

let test_canonical_rows () =
  let m = Mat.of_int_lists [ [ 2; 4 ]; [ 0; -3 ] ] in
  Alcotest.(check (list (list int)))
    "gcd-reduced, sign-normalized"
    [ [ 1; 2 ]; [ 0; 1 ] ]
    (Mat.to_int_lists (Inl.Perstmt.canonical_rows m))

let test_budget_truncation () =
  let _, full = identity_sig Px.cholesky_kji in
  Alcotest.(check int) "no truncation unbudgeted" 0 (Reuse.truncated_stmts full);
  let _, tiny = identity_sig ~work_budget:1 Px.cholesky_kji in
  Alcotest.(check bool) "budget truncates" true (Reuse.truncated_stmts tiny > 0);
  Alcotest.(check bool) "truncated refs unknown" true (Reuse.unknown_refs tiny > 0);
  Alcotest.(check bool) "pessimistic, never optimistic" true
    (Reuse.score tiny >= Reuse.score full)

let test_signature_memo () =
  Reuse.clear_memo ();
  let compute () = snd (identity_sig Px.cholesky_kji) in
  let s1 = compute () in
  let before = (Reuse.memo_stats ()).Memo.hits in
  let s2 = compute () in
  Alcotest.(check bool) "second computation hits the memo" true
    ((Reuse.memo_stats ()).Memo.hits > before);
  Alcotest.(check string) "memoized signature identical" (Reuse.key s1) (Reuse.key s2);
  let entries = (Reuse.memo_stats ()).Memo.entries in
  ignore (identity_sig ~work_budget:1 Px.cholesky_kji);
  Alcotest.(check int) "budgeted signatures are not stored" entries
    ((Reuse.memo_stats ()).Memo.entries)

let test_memo_two_generations () =
  (* the O(1) retirement discipline: inserts fill the young generation;
     filling it retires the old one wholesale, so an entry that goes
     unused for two generations is evicted while anything hit in the
     meantime is promoted and survives *)
  let t : int Memo.t = Memo.create ~max_entries:2 () in
  Memo.add t "a" 1;
  Memo.add t "b" 2 (* young full -> {a,b} becomes the old generation *);
  Alcotest.(check (option int)) "old-generation hit" (Some 1) (Memo.find t "a");
  (* the hit moved "a" out of the old generation into the young one *)
  Memo.add t "c" 3 (* young full again -> retires {b}: 1 eviction *);
  Memo.add t "d" 4;
  Memo.add t "e" 5 (* retires {a,c}: 2 more *);
  Alcotest.(check (option int)) "unused for two generations: evicted" None (Memo.find t "b");
  Alcotest.(check (option int)) "promotion did not outlive disuse" None (Memo.find t "a");
  Alcotest.(check (option int)) "recent entry survives" (Some 4) (Memo.find t "d");
  (* the keys a, b and c are each evicted once *)
  Alcotest.(check int) "evictions counted" 3 (Memo.stats t).Memo.evictions

let test_memo_disabled_bypasses () =
  (* the --no-cache contract at the table level: a disabled table
     answers nothing, stores nothing, and counts nothing *)
  let t : int Memo.t = Memo.create () in
  Memo.add t "k" 1;
  Memo.set_enabled t false;
  Alcotest.(check (option int)) "disabled find misses" None (Memo.find t "k");
  Memo.add t "k2" 2;
  Alcotest.(check int) "disabled lookups uncounted" 0
    ((Memo.stats t).Memo.hits + (Memo.stats t).Memo.misses);
  Memo.set_enabled t true;
  Alcotest.(check (option int)) "disabled add stored nothing" None (Memo.find t "k2");
  Alcotest.(check (option int)) "re-enabled table still has its entries" (Some 1) (Memo.find t "k")

let () =
  Alcotest.run "reuse"
    [
      ( "classes",
        [
          Alcotest.test_case "kji Cholesky pinned" `Quick test_kji_classes;
          Alcotest.test_case "loop-invariant references" `Quick test_scalar_and_param_refs;
        ] );
      ("invariance", [ scaling_property; Alcotest.test_case "canonical rows" `Quick test_canonical_rows ]);
      ( "ground-truth",
        [
          Alcotest.test_case "ranking agrees with the simulator" `Quick test_ranking_matches_cachesim;
          Alcotest.test_case "weighted score fixes the jki blind spot" `Quick
            test_weighted_fixes_jki;
          Alcotest.test_case "per-array attribution" `Quick test_by_array_attribution;
        ] );
      ( "budget-and-memo",
        [
          Alcotest.test_case "work budget truncates pessimistically" `Quick test_budget_truncation;
          Alcotest.test_case "signature memo" `Quick test_signature_memo;
          Alcotest.test_case "two-generation eviction" `Quick test_memo_two_generations;
          Alcotest.test_case "disabled table bypasses" `Quick test_memo_disabled_bypasses;
        ] );
    ]
