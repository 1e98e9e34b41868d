(* Tests for the memoized, parallel solver core.

   Three layers:
   - Pool unit tests force real helper domains with explicit [~jobs]
     (the process default is capped at the core count, so only explicit
     arguments exercise multi-domain schedules on small machines):
     input-order results, lowest-index exception, nesting.
   - QCheck properties: [System.canonicalize] preserves the solution set
     (it is the cache key, so this is the cache's soundness), and cached
     projection/satisfiability answers are structurally identical to
     uncached ones.
   - Determinism: the rendered output of the full pipeline (deps,
     legality, completion, codegen, verify) is byte-identical with the
     cache on or off and with jobs 1 or 4. *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Cache = Inl_presburger.Cache
module Memo = Inl_diag.Memo
module Pool = Inl_parallel.Pool
module Px = Inl_kernels.Paper_examples
module Dep = Inl_depend.Dep
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec

let le = Linexpr.of_terms

(* ---- pool ---- *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let want = List.map (fun x -> (x * x) + 1) xs in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs 1" want (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "jobs 2" want (Pool.map ~jobs:2 f xs);
  Alcotest.(check (list int)) "jobs 4" want (Pool.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~jobs:4 f [ 1 ])

let test_map_exception () =
  (* several tasks fail; the lowest-index failure is re-raised *)
  let f i = if i > 0 && i mod 3 = 0 then failwith (string_of_int i) else i in
  (match Pool.map ~jobs:4 f (List.init 50 Fun.id) with
  | _ -> Alcotest.fail "expected a failure"
  | exception Failure msg -> Alcotest.(check string) "lowest index wins" "3" msg);
  (* a failing map leaves the pool reusable *)
  Alcotest.(check (list int)) "pool survives" [ 0; 1; 2 ] (Pool.map ~jobs:2 Fun.id [ 0; 1; 2 ])

let test_map_nested () =
  let inner i = List.fold_left ( + ) 0 (Pool.map ~jobs:2 (fun j -> i * j) (List.init 10 Fun.id)) in
  let got = Pool.map ~jobs:2 inner (List.init 8 Fun.id) in
  Alcotest.(check (list int)) "nested" (List.map (fun i -> 45 * i) (List.init 8 Fun.id)) got

let test_filter_map () =
  let f x = if x mod 2 = 0 then Some (x / 2) else None in
  Alcotest.(check (list int))
    "filter_map" (List.filter_map f (List.init 20 Fun.id))
    (Pool.filter_map ~jobs:3 f (List.init 20 Fun.id))

let test_jobs_cap () =
  let before = Pool.requested_jobs () in
  Pool.set_jobs 7;
  Alcotest.(check int) "requested" 7 (Pool.requested_jobs ());
  Alcotest.(check bool) "capped at cores" true
    (Pool.jobs () <= max 1 (Domain.recommended_domain_count ()));
  Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.requested_jobs ());
  Pool.set_jobs before

(* ---- shutdown ---- *)

let test_shutdown_idempotent () =
  (* spin helpers up, tear them down twice, and keep using the pool:
     shutdown is idempotent and never strands a caller *)
  Alcotest.(check (list int)) "warm-up" [ 0; 1; 2 ] (Pool.map ~jobs:3 Fun.id [ 0; 1; 2 ]);
  Pool.shutdown ();
  Pool.shutdown ();
  Alcotest.(check (list int))
    "usable after shutdown" [ 1; 4; 9 ]
    (Pool.map ~jobs:3 (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown ();
  Alcotest.(check (list int)) "and again" [ 5 ] (Pool.map ~jobs:2 Fun.id [ 5 ])

let test_shutdown_cold () =
  (* shutdown with no helpers ever started is a no-op *)
  Pool.shutdown ();
  Alcotest.(check (list int)) "still works" [ 7 ] (Pool.map ~jobs:2 Fun.id [ 7 ])

(* ---- projection cache unit tests ---- *)

let canon_exn sys =
  match System.canonicalize sys with Some s -> s | None -> Alcotest.fail "unexpectedly infeasible"

let simple_sys k =
  canon_exn
    [ Constr.ge (le [ (1, "x") ] (-k)); Constr.ge (le [ (-1, "x") ] (k + 5)) ]

let test_cache_counters () =
  let c : System.t list Cache.t = Cache.create ~max_entries:2 () in
  let budget = Inl_diag.Budget.default in
  let key ?(budget = budget) k = { Cache.Key.sys = simple_sys k; kept = [ "x" ]; budget } in
  Alcotest.(check bool) "initial miss" true (Cache.find c (key 0) = None);
  Cache.add c (key 0) [ simple_sys 0 ];
  (match Cache.find c (key 0) with
  | Some [ s ] -> Alcotest.(check bool) "hit returns stored" true (System.equal s (simple_sys 0))
  | _ -> Alcotest.fail "expected a hit");
  (* same system under a different budget is a different key *)
  let tight = Inl_diag.Budget.with_fm_work budget 7 in
  Alcotest.(check bool) "budget in key" true (Cache.find c (key ~budget:tight 0) = None);
  (* overflow two generations and observe evictions *)
  for k = 1 to 6 do
    Cache.add c (key k) [ simple_sys k ]
  done;
  let s = Cache.stats c in
  Alcotest.(check bool) "evictions counted" true (s.Cache.evictions > 0);
  Alcotest.(check bool) "bounded" true (s.Cache.entries <= 4);
  Cache.clear c;
  let s = Cache.stats c in
  Alcotest.(check int) "clear zeroes entries" 0 s.Cache.entries;
  Alcotest.(check int) "clear zeroes hits" 0 s.Cache.hits

(* ---- QCheck properties ---- *)

let box_vars = [ "x"; "y"; "z" ]
let box_lo = -5
let box_hi = 5
let box = List.map (fun v -> (v, box_lo, box_hi)) box_vars

let gen_constr : Constr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* nvars = int_range 1 3 in
  let* coefs = list_size (return nvars) (int_range (-3) 3) in
  let* which = list_size (return nvars) (int_range 0 2) in
  let* const = int_range (-8) 8 in
  let* is_eq = frequency [ (3, return false); (1, return true) ] in
  let terms = List.map2 (fun c w -> (c, List.nth box_vars w)) coefs which in
  let e = le terms const in
  return (if is_eq then Constr.eq e else Constr.ge e)

let gen_sys : System.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  list_size (return n) gen_constr

let boxed sys =
  List.fold_left
    (fun acc v ->
      System.add
        (Constr.ge2 (Linexpr.var v) (Linexpr.of_int box_lo))
        (System.add (Constr.le2 (Linexpr.var v) (Linexpr.of_int box_hi)) acc))
    sys box_vars

let sols sys = System.solutions_in_box sys box

let prop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let props =
  [
    prop "canonicalize preserves the solution set" gen_sys (fun sys ->
        let sys = boxed sys in
        match System.canonicalize sys with
        | None -> sols sys = []
        | Some sys' -> sols sys = sols sys');
    prop "canonical equals imply equal solution sets" gen_sys (fun sys ->
        (* hash/equal consistency on the cache key type *)
        let sys = boxed sys in
        match System.canonicalize sys with
        | None -> true
        | Some c1 -> (
            match System.canonicalize (List.rev sys) with
            | None -> false
            | Some c2 -> System.equal c1 c2 && System.hash c1 = System.hash c2));
    prop "cached answers are structurally identical to uncached" ~count:150 gen_sys (fun sys ->
        let sys = boxed sys in
        let keep v = v = "x" || v = "y" in
        Omega.clear_cache ();
        let ctx = Omega.new_analysis () in
        Omega.reset_fresh_names ();
        let p_fill = Omega.project ~ctx sys ~keep in
        let p_hit = Omega.project ~ctx sys ~keep in
        let sat_on = Omega.satisfiable ~ctx sys in
        Memo.set_all_enabled false;
        Omega.reset_fresh_names ();
        let p_off = Omega.project ~ctx sys ~keep in
        let sat_off = Omega.satisfiable ~ctx sys in
        Memo.set_all_enabled true;
        p_fill = p_off && p_hit = p_off && sat_on = sat_off);
  ]

(* ---- end-to-end determinism ---- *)

(* Render everything observable the pipeline produces for a kernel. *)
let render_kernel buf src partial =
  let ctx = Inl.analyze_source src in
  List.iter (fun d -> Buffer.add_string buf (Format.asprintf "%a\n" Dep.pp d)) ctx.Inl.deps;
  List.iter (fun d -> Buffer.add_string buf (Inl.Diag.to_string d ^ "\n")) ctx.Inl.diags;
  match partial with
  | None -> ()
  | Some rows -> (
      match Inl.complete_result ctx ~partial:(List.map Vec.of_int_list rows) with
      | Error ds -> Buffer.add_string buf (Inl.Diag.list_to_string ds ^ "\n")
      | Ok m -> (
          Buffer.add_string buf (Format.asprintf "%a\n" Mat.pp m);
          match Inl.transform ctx m with
          | Error ds -> Buffer.add_string buf (Inl.Diag.list_to_string ds ^ "\n")
          | Ok prog ->
              Buffer.add_string buf (Inl.Pp.program_to_string prog ^ "\n");
              let report = Inl_verify.Verify.run ~against:ctx.Inl.program prog in
              List.iter
                (fun d -> Buffer.add_string buf (Inl.Diag.to_string d ^ "\n"))
                (Inl_verify.Verify.diags report)))

let render_all () =
  let buf = Buffer.create 4096 in
  render_kernel buf Px.simplified_cholesky (Some [ [ 0; 0; 0; 1 ] ]);
  render_kernel buf Px.cholesky (Some [ [ 0; 0; 0; 0; 0; 1; 0 ] ]);
  render_kernel buf Px.lu None;
  Buffer.contents buf

let test_cache_on_off_byte_equal () =
  let go enabled =
    Memo.set_all_enabled enabled;
    Memo.clear_all ();
    render_all ()
  in
  let off = go false in
  let cold = go true in
  let warm = go true in
  Alcotest.(check string) "cache off = cache on (cold)" off cold;
  Alcotest.(check string) "cache off = cache on (warm)" off warm

let test_jobs_byte_equal () =
  let go j =
    Pool.set_jobs j;
    Omega.clear_cache ();
    render_all ()
  in
  let seq = go 1 in
  let par = go 4 in
  Pool.set_jobs 1;
  Alcotest.(check string) "jobs 1 = jobs 4" seq par

let verdict_equal a b =
  match (a, b) with
  | Inl.Legality.Legal { unsatisfied = u1; _ }, Inl.Legality.Legal { unsatisfied = u2; _ } ->
      List.length u1 = List.length u2 && List.for_all2 (fun x y -> Dep.compare x y = 0) u1 u2
  | Inl.Legality.Illegal m1, Inl.Legality.Illegal m2 -> String.equal m1 m2
  | _ -> false

let test_legality_jobs_agree () =
  let ctx = Inl.analyze_source Px.cholesky in
  List.iter
    (fun rows ->
      let m = Mat.of_int_lists rows in
      let v1 = Inl.Legality.check ctx.Inl.layout m ctx.Inl.deps in
      let v4 = Inl.Legality.check ~jobs:4 ctx.Inl.layout m ctx.Inl.deps in
      let vc = Inl.Legality.check ~cache:(Inl.Legality.make_cache ()) ctx.Inl.layout m ctx.Inl.deps in
      Alcotest.(check bool) "jobs 1 = jobs 4" true (verdict_equal v1 v4);
      Alcotest.(check bool) "uncached = cached" true (verdict_equal v1 vc))
    [ Px.corrected_c_rows; Px.paper_c_printed_rows ]

(* Regression: a watchdog deadline firing mid-[Pool.map] must cancel the
   remaining tasks at claim time and surface as this level's typed
   timeout, not run the whole batch to completion first.  Tasks here
   sleep without ever polling, so only claim-time cancellation can cut
   the fan-out short: 40 x 50 ms at jobs=2 is a full second of work
   against a 150 ms deadline. *)
let test_watchdog_cancels_map () =
  let module Watchdog = Inl_diag.Watchdog in
  let started = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let result =
    Watchdog.with_timeout ~ms:150 (fun () ->
        Pool.map ~jobs:2
          (fun _ ->
            Atomic.incr started;
            Unix.sleepf 0.05)
          (List.init 40 Fun.id))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the deadline to cancel the map");
  Alcotest.(check bool)
    (Printf.sprintf "cancelled promptly (%.0f ms elapsed)" (elapsed *. 1000.))
    true (elapsed < 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "most tasks never started (%d of 40 ran)" (Atomic.get started))
    true
    (Atomic.get started < 40);
  (* the pool is reusable afterwards, and no stale deadline lingers *)
  Alcotest.(check bool) "deadline restored" false (Watchdog.active ());
  Alcotest.(check (list int)) "pool survives" [ 0; 1; 2 ] (Pool.map ~jobs:2 Fun.id [ 0; 1; 2 ])

let test_deps_sorted () =
  List.iter
    (fun src ->
      let ctx = Inl.analyze_source src in
      let rec sorted = function
        | a :: (b :: _ as t) -> Dep.compare a b <= 0 && sorted t
        | _ -> true
      in
      Alcotest.(check bool) "sorted by Dep.compare" true (sorted ctx.Inl.deps))
    [ Px.simplified_cholesky; Px.cholesky; Px.lu ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves input order" `Quick test_map_order;
          Alcotest.test_case "lowest-index exception" `Quick test_map_exception;
          Alcotest.test_case "nested maps" `Quick test_map_nested;
          Alcotest.test_case "filter_map" `Quick test_filter_map;
          Alcotest.test_case "watchdog cancels an in-flight map" `Quick
            test_watchdog_cancels_map;
          Alcotest.test_case "jobs capped at core count" `Quick test_jobs_cap;
        ] );
      ("cache", [ Alcotest.test_case "counters and eviction" `Quick test_cache_counters ]);
      ("properties", props);
      ( "determinism",
        [
          Alcotest.test_case "cache on/off byte-equal" `Quick test_cache_on_off_byte_equal;
          Alcotest.test_case "jobs 1/4 byte-equal" `Quick test_jobs_byte_equal;
          Alcotest.test_case "legality verdicts agree across configs" `Quick
            test_legality_jobs_agree;
          Alcotest.test_case "dependences sorted" `Quick test_deps_sorted;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "idempotent and non-stranding" `Quick test_shutdown_idempotent;
          Alcotest.test_case "cold shutdown is a no-op" `Quick test_shutdown_cold;
        ] );
    ]
