(* Unit and property tests for the transformation autotuner: the move
   enumerator's contract, the static cost tier, end-to-end search on the
   paper's Cholesky kernel, byte-level determinism across worker counts,
   and a QCheck property over fuzz-generated programs — every emitted
   winner must be legal, pass translation validation, and be
   interpreter-equivalent to its source. *)

module Search = Inl_search.Search
module Moves = Inl_search.Moves
module Reuse = Inl_reuse.Reuse
module Memo = Inl_diag.Memo
module Tf = Inl_fuzz.Tf
module Gen = Inl_fuzz.Gen
module Px = Inl_kernels.Paper_examples
module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify
module Diag = Inl_diag.Diag
module Pool = Inl_parallel.Pool
module Ast = Inl_ir.Ast
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Mpz = Inl_num.Mpz
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout

let parse = Inl_ir.Parser.parse_exn

(* Small enough that a test-suite full of searches stays fast; the
   Cholesky searches below still recover the known-best order. *)
let tiny =
  {
    Search.default_config with
    Search.beam = 4;
    depth = 2;
    finalists = 3;
    size = 8;
    max_moves = 24;
    sim_max_steps = 400_000;
  }

(* ---- move enumeration ---- *)

let known_kinds = [ "interchange"; "reverse"; "skew"; "align"; "reorder" ]

let test_moves_contract () =
  let prog = parse Px.cholesky_kji in
  let moves = Moves.enumerate prog in
  Alcotest.(check bool) "non-empty" true (moves <> []);
  List.iter
    (fun steps ->
      Alcotest.(check bool) "move has steps" true (steps <> []);
      List.iter
        (fun (kind, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %s known" kind)
            true (List.mem kind known_kinds))
        steps;
      (* every enumerated move must either materialize or fail with a
         typed error — never an exception *)
      let ctx = Inl.analyze prog in
      match Tf.materialize ctx { Tf.steps = steps; partial = []; edits = [] } with
      | Ok _ | Error _ -> ())
    moves;
  Alcotest.(check (list (list (pair string string))))
    "deterministic" moves
    (Moves.enumerate (parse Px.cholesky_kji))

let test_moves_cover_depths () =
  (* kji Cholesky has one loop pair per imperfect branch: interchanges
     and skews must appear for nested pairs, reversals for every loop;
     the wavefront compound (skew then interchange) rides every pair *)
  let moves = Moves.enumerate (parse Px.cholesky_kji) in
  let kinds = List.sort_uniq compare (List.map fst (List.concat moves)) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "has %s" k) true (List.mem k kinds))
    [ "interchange"; "reverse"; "skew"; "align" ];
  Alcotest.(check bool)
    "has wavefront compound" true
    (List.exists
       (fun steps ->
         match steps with [ ("skew", _); ("interchange", _) ] -> true | _ -> false)
       moves)

(* ---- static cost tier ---- *)

let structure_of ctx m =
  match Inl.check ctx m with
  | Inl.Legality.Legal { structure; _ } -> structure
  | Inl.Legality.Illegal r -> Alcotest.failf "expected legal: %s" r

let test_static_score_orders_variants () =
  (* the static tier must at least separate the classical orders: jik
     (dot-product inner loops, unit-stride last subscripts) scores
     strictly better than kji (column-oriented, stride-N inner axis) *)
  let score src =
    let ctx = Inl.analyze (parse src) in
    let n = Layout.size ctx.Inl.layout in
    Reuse.static_score ctx (structure_of ctx (Mat.identity n))
  in
  let kji = score Px.cholesky_kji and jik = score Px.cholesky_jik in
  Alcotest.(check bool)
    (Printf.sprintf "jik %.1f < kji %.1f" jik kji)
    true (jik < kji);
  Alcotest.(check bool) "scores positive" true (jik > 0.0 && kji > 0.0)

(* ---- end-to-end on the paper kernel ---- *)

let test_optimize_cholesky () =
  let ctx = Inl.analyze (parse Px.cholesky_kji) in
  let o = Search.optimize ~config:{ tiny with Search.size = 16 } ctx in
  Alcotest.(check bool) "no errors" false (Diag.has_errors o.Search.diags);
  let w = match o.Search.winner with Some w -> w | None -> Alcotest.fail "no winner" in
  (match (w.Search.misses, o.Search.source_misses) with
  | Some wm, Some sm ->
      Alcotest.(check bool) (Printf.sprintf "winner %d <= source %d" wm sm) true (wm <= sm)
  | _ -> Alcotest.fail "trace tier did not run");
  Alcotest.(check bool) "funnel counted work" true
    (o.Search.funnel.Search.generated > 0
    && o.Search.funnel.Search.scored > 0
    && o.Search.funnel.Search.simulated > 0);
  (* the winner is a real program, equivalent to the source *)
  let wp = match w.Search.program with Some p -> p | None -> Alcotest.fail "winner has no code" in
  List.iter
    (fun n ->
      match Interp.equivalent ~max_steps:400_000 ctx.Inl.program wp ~params:[ ("N", n) ] with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "not equivalent at N=%d: %s" n msg)
    [ 4; 7 ]

let render (o : Search.outcome) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (e : Search.entry) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %.6f %s %s\n%s" e.Search.rank
           (Tf.to_string e.Search.recipe)
           e.Search.static_score
           (match e.Search.misses with Some m -> string_of_int m | None -> "-")
           (match e.Search.accesses with Some a -> string_of_int a | None -> "-")
           (match e.Search.program with Some p -> Inl.Pp.program_to_string p | None -> "")))
    o.Search.entries;
  Buffer.add_string b
    (match o.Search.winner with
    | Some w -> "winner " ^ Tf.to_string w.Search.recipe
    | None -> "no winner");
  Buffer.contents b

let test_optimize_deterministic_across_jobs () =
  let run jobs =
    Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs 1)
      (fun () -> render (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji))))
  in
  let r1 = run 1 in
  Alcotest.(check string) "jobs=1 repeatable" r1 (run 1);
  Alcotest.(check string) "jobs=4 identical to jobs=1" r1 (run 4)

(* ---- delta legality agrees with the full check ---- *)

let verdicts_agree ~what full delta =
  match (full, delta) with
  | ( Inl.Legality.Legal { unsatisfied = ua; _ },
      Inl.Legality.Legal { unsatisfied = ub; _ } ) ->
      if not (List.equal (fun a b -> Dep.compare a b = 0) ua ub) then
        QCheck2.Test.fail_reportf "%s: unsatisfied sets differ" what
  | Inl.Legality.Illegal ra, Inl.Legality.Illegal rb ->
      if not (String.equal ra rb) then
        QCheck2.Test.fail_reportf "%s: offenders differ: %s vs %s" what ra rb
  | Inl.Legality.Legal _, Inl.Legality.Illegal r ->
      QCheck2.Test.fail_reportf "%s: full says legal, delta says illegal: %s" what r
  | Inl.Legality.Illegal r, Inl.Legality.Legal _ ->
      QCheck2.Test.fail_reportf "%s: full says illegal (%s), delta says legal" what r

(* The search's soundness rests on check_env with a parent summary being
   indistinguishable from a from-scratch check: same verdict, same
   unsatisfied set, same first offender.  Exercised exactly the way the
   beam uses it — identity -> one move -> a second move over
   fuzz-generated programs. *)
let delta_prop (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let ctx = Inl.analyze prog in
  let env = Inl.Legality.make_env ctx.Inl.layout ctx.Inl.deps in
  let mat steps = Tf.materialize ctx { Tf.steps; partial = []; edits = [] } in
  let _, id_summary = Inl.Legality.check_env env (Mat.identity (Layout.size ctx.Inl.layout)) in
  let step_line steps = String.concat "; " (List.map (fun (k, s) -> k ^ " " ^ s) steps) in
  let moves = List.filteri (fun i _ -> i < 8) (Moves.enumerate prog) in
  let parents =
    List.filter_map
      (fun steps ->
        match mat steps with
        | Error _ -> None
        | Ok m ->
            let delta, summary = Inl.Legality.check_env ?parent:id_summary env m in
            verdicts_agree ~what:(step_line steps) (Inl.check ctx m) delta;
            Option.map (fun y -> (steps, y)) summary)
      moves
  in
  List.iter
    (fun (steps1, parent) ->
      List.iter
        (fun steps2 ->
          match mat (steps1 @ steps2) with
          | Error _ -> ()
          | Ok m ->
              verdicts_agree
                ~what:(step_line (steps1 @ steps2))
                (Inl.check ctx m)
                (fst (Inl.Legality.check_env ~parent env m)))
        moves)
    (List.filteri (fun i _ -> i < 3) parents);
  true

let delta_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"delta legality agrees with the full check" ~count:25
       QCheck2.Gen.(pair (int_bound 4) (int_bound 23))
       delta_prop)

(* ---- structural memo keys draw the lines the printed keys drew ---- *)

(* [keys] pairs each structural key with the printed key it replaced:
   two keys must be equal exactly when their printed keys are, and equal
   keys must hash alike. *)
let same_lines ~what ~equal ~hash keys =
  List.iter
    (fun (k, p) ->
      List.iter
        (fun (k', p') ->
          let se = equal k k' and pe = String.equal p p' in
          if se <> pe then
            QCheck2.Test.fail_reportf "%s: structural %b, printed %b:\n%s\n%s" what se pe p p';
          if se && hash k <> hash k' then QCheck2.Test.fail_reportf "%s: %s hashes apart" what p)
        keys)
    keys

(* The exact rendering of a dependence the printed verdict and
   completion keys embedded. *)
let dep_id (d : Dep.t) =
  let bound = function
    | Inl_presburger.Interval.NegInf -> "-inf"
    | PosInf -> "+inf"
    | Fin z -> Mpz.to_string z
  in
  Printf.sprintf "%s>%s:%s:%s:%s%c%s" d.Dep.src d.Dep.dst d.Dep.array
    (Dep.kind_to_string d.Dep.kind) (Dep.level_to_string d.Dep.level)
    (if d.Dep.approximate then '~' else '=')
    (String.concat ""
       (Array.to_list
          (Array.map
             (fun (iv : Inl_presburger.Interval.t) -> bound iv.lo ^ "," ^ bound iv.hi ^ ";")
             d.Dep.vector)))

let printed_rows rows =
  String.concat "/" (List.map (fun r -> String.concat "," (List.map string_of_int r)) rows)

(* The verdict keys of one candidate, built as Legality builds them,
   with the process-wide tier's old printed key and the per-search
   tier's old structural key (the dependence, Mpz rows, the order). *)
let verdict_keys (ctx : Inl.context) m =
  match Inl.Blockstruct.infer ctx.Inl.layout m with
  | Error _ -> []
  | Ok st ->
      let layout = ctx.Inl.layout in
      List.map
        (fun (d : Dep.t) ->
          let si = Layout.stmt_info layout d.Dep.src and di = Layout.stmt_info layout d.Dep.dst in
          let commons =
            List.sort compare
              (List.map
                 (Array.get st.Inl.Blockstruct.old_to_new)
                 (Layout.common_loop_positions layout si di))
          in
          let precedes =
            String.equal d.Dep.src d.Dep.dst
            || Ast.syntactic_compare
                 (Inl.Blockstruct.map_path st si.Layout.path)
                 (Inl.Blockstruct.map_path st di.Layout.path)
               < 0
          in
          let rows = List.map (Mat.row m) commons in
          let printed =
            dep_id d
            ^ (if precedes then "<" else "|")
            ^ String.concat ""
                (List.map
                   (fun r ->
                     String.concat "" (List.map (fun x -> Mpz.to_string x ^ ",") (Array.to_list r))
                     ^ "/")
                   rows)
          in
          ( {
              Inl.Legality.Key.k_dep = d;
              k_dep_hash = Hashtbl.hash d;
              k_rows = Array.concat (List.map Vec.to_int_array rows);
              k_src_precedes = precedes;
            },
            (printed, (d, rows, precedes)) ))
        ctx.Inl.deps

(* Candidates of one fuzz program: step chains of one and two moves (the
   reorders among them flip endpoint orders), and the completion seeds. *)
let candidates (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let ctx = Inl.analyze prog in
  let first k l = List.filteri (fun i _ -> i < k) l in
  let all = Moves.enumerate prog in
  let moves = first 6 all @ first 3 (List.filter (fun mv -> fst (List.hd mv) = "reorder") all) in
  let pairs = List.concat_map (fun a -> List.map (fun b -> a @ b) moves) (first 2 moves) in
  let chains = ([] :: moves) @ pairs in
  let steps =
    List.filter_map
      (fun steps ->
        match Tf.materialize ctx { Tf.steps; partial = []; edits = [] } with
        | Ok m -> Some (steps, m)
        | Error _ -> None)
      chains
  in
  let partials =
    List.map
      (fun row -> [ Array.to_list (Vec.to_int_array row) ])
      (Inl.Completion.seed_rows ctx.Inl.layout)
  in
  (ctx, steps, partials)

let keys_prop (seed, index) =
  let cases = [ candidates (seed, index); candidates (seed, (index + 1) mod 24) ] in
  (* a fresh identity per candidate, as each search makes its own *)
  let id (ctx : Inl.context) = Search.Key.prog_id (Inl.Pp.program_to_string ctx.Inl.program) in
  let text (ctx : Inl.context) = Inl.Pp.program_to_string ctx.Inl.program in
  let deps (ctx : Inl.context) = String.concat "&" (List.map dep_id ctx.Inl.deps) in
  let key ?(steps = []) ?(rows = [||]) prog =
    { Search.Key.k_prog = prog; k_steps = steps; k_rows = rows }
  in
  let rows m = Array.map Vec.to_int_array m in
  let each f = List.concat_map f cases in
  let search_lines what = same_lines ~what ~equal:Search.Key.equal ~hash:Search.Key.hash in
  search_lines "pipe"
    (each (fun (ctx, steps, _) ->
         List.map
           (fun (s, _) ->
             ( key ~steps:s (id ctx),
               Printf.sprintf "pipe|%s|%s" (text ctx)
                 (String.concat ";" (List.map (fun (k, v) -> k ^ " " ^ v) s)) ))
           steps));
  search_lines "sig"
    (each (fun (ctx, steps, _) ->
         List.map
           (fun (_, m) ->
             ( key ~rows:(rows m) (id ctx),
               Printf.sprintf "sig|%s|%s" (text ctx) (printed_rows (Mat.to_int_lists m)) ))
           steps));
  (* the duplicate filter is per search: one program, one identity *)
  List.iter
    (fun (ctx, steps, _) ->
      let prog = id ctx in
      search_lines "seen"
        (List.map
           (fun (_, m) -> (key ~rows:(rows m) prog, printed_rows (Mat.to_int_lists m)))
           steps))
    cases;
  search_lines "complete"
    (each (fun (ctx, _, partials) ->
         let prog =
           Search.Key.prog_id (text ctx ^ Marshal.to_string ctx.Inl.deps [ Marshal.No_sharing ])
         in
         List.map
           (fun partial ->
             ( key ~rows:(Array.of_list (List.map Array.of_list partial)) prog,
               Printf.sprintf "complete|%s|%s|%s" (text ctx) (deps ctx)
                 (Tf.to_string { Tf.steps = []; partial; edits = [] }) ))
           partials));
  (* both verdict tiers: the printed process-wide key and the structural
     per-search key it sat behind *)
  let verdicts =
    each (fun (ctx, steps, _) -> List.concat_map (fun (_, m) -> verdict_keys ctx m) steps)
  in
  same_lines ~what:"legality memo" ~equal:Inl.Legality.Key.equal ~hash:Inl.Legality.Key.hash
    (List.map (fun (k, (p, _)) -> (k, p)) verdicts);
  List.iter
    (fun (k, (_, old)) ->
      List.iter
        (fun (k', (_, old')) ->
          if Inl.Legality.Key.equal k k' <> (compare old old' = 0) then
            QCheck2.Test.fail_reportf "legality cache: the structural keys disagree")
        verdicts)
    verdicts;
  true

let keys_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"structural memo keys match the printed ones" ~count:12
       QCheck2.Gen.(pair (int_bound 4) (int_bound 23))
       keys_prop)

(* lu_pivot: 8 layout columns, so the search runs widened (beam 12,
   depth 4) and deep step chains fill the memos *)
let lu_pivot =
  {|params N
do K = 1..N
  S1: P(K) = A(K,K)
  do I = K+1..N
    S2: P(K) = P(K) + A(I,K)
    S3: A(I,K) = A(I,K) / P(K)
    do J = K+1..N
      S4: A(I,J) = A(I,J) - A(I,K) * A(K,J)
    enddo
  enddo
enddo
|}

let test_cold_warm_identical () =
  let ctx = Inl.analyze (parse lu_pivot) in
  Alcotest.(check int) "eight columns" 8 (Layout.size ctx.Inl.layout);
  let config = Search.config_for ~base:tiny ctx in
  Memo.clear_all ();
  let cold = Search.optimize ~config ctx in
  let hits_before = (Search.mat_cache_stats ()).Memo.hits in
  let warm = Search.optimize ~config ctx in
  Alcotest.(check bool) "the warm search read the memos" true
    ((Search.mat_cache_stats ()).Memo.hits > hits_before);
  Alcotest.(check bool) "entries" true (cold.Search.entries = warm.Search.entries);
  Alcotest.(check bool) "winner" true (cold.Search.winner = warm.Search.winner);
  Alcotest.(check bool) "funnel" true (cold.Search.funnel = warm.Search.funnel);
  Alcotest.(check string) "rendered" (render cold) (render warm)

(* ---- the --no-cache contract and the memo registry ---- *)

let memo_names =
  [
    "projection cache";
    "legality memo";
    "reuse memo";
    "pipe memo";
    "complete memo";
    "sig memo";
    "sim memo";
    "arrays memo";
  ]

let test_no_cache_bypasses_memos () =
  let run () = render (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji))) in
  let reference = run () in
  let lookups () =
    List.map (fun (name, _, (s : Memo.stats)) -> (name, s.Memo.hits + s.Memo.misses)) (Memo.all_stats ())
  in
  Memo.set_all_enabled false;
  Fun.protect
    ~finally:(fun () -> Memo.set_all_enabled true)
    (fun () ->
      let before = lookups () in
      let off = run () in
      Alcotest.(check string) "identical outcome without the memos" reference off;
      List.iter
        (fun (name, n) ->
          Alcotest.(check int) (name ^ " untouched") n (List.assoc name (lookups ())))
        before;
      Alcotest.(check (list string)) "every memo checked" memo_names (List.map fst before))

let test_memo_registry () =
  ignore (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji)));
  let names () = List.map (fun (name, _, _) -> name) (Memo.all_stats ()) in
  Alcotest.(check (list string)) "the eight process tables" memo_names (names ());
  Memo.clear_all ();
  List.iter
    (fun (name, _, (s : Memo.stats)) ->
      Alcotest.(check int) (name ^ " emptied") 0 s.Memo.entries)
    (Memo.all_stats ())

(* ---- property: every winner is legal, validated, and equivalent ---- *)

let winner_prop (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let ctx = Inl.analyze prog in
  match (Search.optimize ~config:{ tiny with Search.depth = 1; size = 6 } ctx).Search.winner with
  | None -> true (* nothing emitted: nothing to promise *)
  | Some w -> (
      (* legal under the exact test *)
      (match Tf.materialize ctx w.Search.recipe with
      | Error msg -> QCheck2.Test.fail_reportf "winner recipe does not materialize: %s" msg
      | Ok m -> (
          match Inl.check ctx m with
          | Inl.Legality.Legal _ -> ()
          | Inl.Legality.Illegal r -> QCheck2.Test.fail_reportf "winner illegal: %s" r));
      match w.Search.program with
      | None -> QCheck2.Test.fail_reportf "winner without code"
      | Some wp ->
          (* passes translation validation *)
          let report = Verify.run ~against:ctx.Inl.program wp in
          if Diag.has_errors (Verify.diags report) then
            QCheck2.Test.fail_reportf "winner fails verification";
          (* interpreter-equivalent at two small sizes *)
          List.for_all
            (fun n ->
              let params = List.map (fun p -> (p, n)) ctx.Inl.program.Ast.params in
              match Interp.equivalent ~max_steps:400_000 ctx.Inl.program wp ~params with
              | Ok () -> true
              | Error msg -> QCheck2.Test.fail_reportf "not equivalent at %d: %s" n msg)
            [ 2; 4 ])

let winner_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"search winners are legal, validated, equivalent" ~count:30
       QCheck2.Gen.(pair (int_bound 4) (int_bound 23))
       winner_prop)

let () =
  Alcotest.run "search"
    [
      ( "moves",
        [
          Alcotest.test_case "enumeration contract" `Quick test_moves_contract;
          Alcotest.test_case "covers the move kinds" `Quick test_moves_cover_depths;
        ] );
      ( "cost",
        [ Alcotest.test_case "static tier separates variants" `Quick test_static_score_orders_variants ] );
      ( "optimize",
        [
          Alcotest.test_case "cholesky end-to-end" `Quick test_optimize_cholesky;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_optimize_deterministic_across_jobs;
          Alcotest.test_case "--no-cache bypasses the memos" `Quick test_no_cache_bypasses_memos;
          Alcotest.test_case "memo registry" `Quick test_memo_registry;
          Alcotest.test_case "cold and warm memos agree" `Quick test_cold_warm_identical;
        ] );
      ("property", [ delta_property; keys_property; winner_property ]);
    ]
