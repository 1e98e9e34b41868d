(* inlbench: the end-to-end, per-layer benchmark of the pipeline
   "kernel text in -> transformed, verified, executed kernel out".

   One process runs one workload as a closed loop from one client: the
   next request is issued when the previous one returns.  A round issues
   every pinned input once, in an order shuffled by --seed; rounds repeat
   until --seconds have passed, at least three rounds and 100 requests.
   Every request is timed end to end, and in a traced run (--trace 1)
   every call into a layer's public function is wrapped in a span, so
   each layer gets its own figure.  Every output is checked: see
   [oracle] and the failure rules in [account].

   Usage (from the repository root):
     inlbench --workload W --seed S --seconds T --trace 0|1 [--out DIR]
     inlbench --smoke
     inlbench compare DIR_A DIR_B [--spec BENCHMARK.json]

   The README in this directory defines the workloads and every
   metric. *)

module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Parser = Inl_ir.Parser
module Search = Inl_search.Search
module Tf = Inl_fuzz.Tf
module Exec = Inl_exec.Exec
module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify
module Omega = Inl_presburger.Omega
module Memo = Inl_diag.Memo
module Stats = Inl_diag.Stats
module Diag = Inl_diag.Diag
module Pool = Inl_parallel.Pool
module Reuse = Inl_reuse.Reuse
module J = Inl_serve.Json

let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday
let bench_dir = "inlbench"

(* ---- pinned inputs ---- *)

(* The nine committed corpus kernels (every corpus.manifest entry but
   the deliberately poisoned one) and the six Cholesky loop orders of
   the paper's Section 1, each with the problem size the exec workload
   binds every parameter to (about 18-37k statement instances each). *)
let programs =
  [
    ("cholesky", 192);
    ("lu", 40);
    ("stencil", 192);
    ("lu_pivot", 40);
    ("qr", 40);
    ("trisolve", 192);
    ("jacobi1d", 160);
    ("seidel1d", 192);
    ("dp", 192);
    ("chol_kij", 48);
    ("chol_kji", 48);
    ("chol_jki", 48);
    ("chol_jik", 48);
    ("chol_ikj", 48);
    ("chol_ijk", 48);
  ]

(* kernels the exec workload also runs under the wavefront recipe *)
let wavefront_kernels = [ "jacobi1d"; "seidel1d" ]

type input = {
  name : string;
  src : string;
  prog : Ast.program;
  recipe : Tf.t;  (** the winner recipe pinned from the search *)
  exec_size : int;
}

let read path = In_channel.with_open_bin path In_channel.input_all
let input_file name = Filename.concat bench_dir (Filename.concat "inputs" name)

let recipe_of_file name =
  match Tf.of_string (read (input_file name)) with
  | Ok r -> r
  | Error m -> failwith (name ^ ": " ^ m)

let load_inputs () =
  List.map
    (fun (name, exec_size) ->
      let src = read (input_file (name ^ ".loop")) in
      let prog =
        match Parser.parse src with Ok p -> p | Error m -> failwith (name ^ ".loop: " ^ m)
      in
      { name; src; prog; recipe = recipe_of_file (name ^ ".tf"); exec_size })
    programs

(* A program the exec workload runs: a pinned winner, or a kernel under
   the wavefront recipe.  [source] is kept for the equivalence oracle. *)
type exec_item = {
  key : string;
  source : Ast.program;
  program : Ast.program;
  params : (string * int) list;
}

let transformed (inp : input) recipe =
  let ctx = Inl.analyze inp.prog in
  match Tf.materialize ctx recipe with
  | Error m -> failwith (inp.name ^ ": recipe does not materialize: " ^ m)
  | Ok m -> Inl.transform_exn ctx m

let exec_items inputs =
  let wavefront = recipe_of_file "wavefront.tf" in
  List.concat_map
    (fun inp ->
      let item key program =
        {
          key;
          source = inp.prog;
          program;
          params = List.map (fun p -> (p, inp.exec_size)) program.Ast.params;
        }
      in
      item inp.name (transformed inp inp.recipe)
      ::
      (if List.mem inp.name wavefront_kernels then
         [ item (inp.name ^ "+wavefront") (transformed inp wavefront) ]
       else []))
    inputs

(* ---- workloads ---- *)

type kind = Optimize_cold | Optimize_warm | Verify_wl | Exec_wl

let workloads =
  [
    ("optimize-cold", Optimize_cold);
    ("optimize-warm", Optimize_warm);
    ("verify", Verify_wl);
    ("exec", Exec_wl);
  ]

let warm_sizes = [| 32; 48; 64 |]

(* p90 is reported, so a run takes at least 100 requests: ten beyond it *)
let min_requests = 100

(* Every process-wide memo, cleared exactly as the corpus runner does at
   each kernel boundary. *)
let clear_memos () =
  Omega.clear_cache ();
  Inl.Legality.clear_memo ();
  Reuse.clear_memo ();
  Search.clear_process_memos ()

(* ---- per-layer accounting (traced runs only) ---- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let count k = Option.value (Hashtbl.find_opt counts k) ~default:0.
let bump k v = Hashtbl.replace counts k (count k +. v)

let memo_counters () =
  let m (s : Memo.stats) = (s.Memo.hits, s.Memo.misses) in
  let mat = m (Search.mat_cache_stats ()) and compl = m (Search.completion_cache_stats ()) in
  let omega = Omega.cache_stats () in
  [
    ("legality", m (Inl.Legality.memo_stats ()));
    ("reuse", m (Reuse.memo_stats ()));
    ("mat", (fst mat + fst compl, snd mat + snd compl));
    ("trace", m (Search.trace_cache_stats ()));
    ("presburger", (omega.Inl_presburger.Cache.hits, omega.Inl_presburger.Cache.misses));
  ]

let alloc_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

(* ---- the request pipelines: only calls into the layers, each in its
   span (traced runs also read Inl.Stats around the search); all other
   bookkeeping happens after the request's clock stops ---- *)

type response =
  | Optimized of { ctx : Inl.context; outcome : Search.outcome }
  | Verified of { ctx : Inl.context; program : Ast.program; report : Verify.report }
  | Executed of { doall : Exec.doall; plan : Exec.plan; cells : int; diff : (unit, string) result }
  | Failed of string

(* the search phases Inl.Stats times inside Search.optimize *)
let search_phases = [ "simulate"; "codegen"; "completion"; "verify" ]

let optimize_pipeline ~config_of (inp : input) =
  match Span.record "parse" (fun () -> Parser.parse inp.src) with
  | Error m -> Failed ("parse: " ^ m)
  | Ok prog ->
      let ctx = Span.record "analyze" (fun () -> Inl.analyze prog) in
      let snap = if !Span.enabled then Some (Stats.snapshot ()) else None in
      let outcome = Span.record "optimize" (fun () -> Search.optimize ~config:(config_of ctx) ctx) in
      Option.iter
        (fun snap ->
          let phases, counters = Stats.since snap in
          List.iter
            (fun (name, secs, _) ->
              if List.mem name search_phases then begin
                bump ("phase." ^ name) secs;
                Span.note_last (name ^ "_ms") (secs *. 1e3)
              end)
            phases;
          List.iter
            (fun (name, n) ->
              if name = "search.legality.delta-inherited" || name = "search.legality.delta-checked"
              then bump name (float_of_int n))
            counters)
        snap;
      Optimized { ctx; outcome }

let verify_pipeline (inp : input) =
  let ctx = Span.record "analyze" (fun () -> Inl.analyze inp.prog) in
  match Span.record "materialize" (fun () -> Tf.materialize ctx inp.recipe) with
  | Error m -> Failed ("materialize: " ^ m)
  | Ok m -> (
      match Span.record "transform" (fun () -> Inl.transform ctx m) with
      | Error ds -> Failed ("transform: " ^ Diag.list_to_string ds)
      | Ok program ->
          let report =
            Span.record "verify" (fun () -> Verify.run ~against:ctx.Inl.program program)
          in
          Verified { ctx; program; report })

let exec_pipeline (e : exec_item) =
  let doall = Span.record "exec.analyze" (fun () -> Exec.analyze e.program) in
  let plan = Exec.choose doall in
  let seq = Span.record "interp.run" (fun () -> Interp.run e.program ~params:e.params) in
  let par =
    Span.record "exec.execute" (fun () -> Exec.execute ~plan e.program ~params:e.params)
  in
  let diff = Span.record "interp.store_diff" (fun () -> Interp.store_diff seq par) in
  Executed { doall; plan; cells = Hashtbl.length seq; diff }

(* ---- one workload run ---- *)

type item = Input of input | Exec_item of exec_item

type run = {
  kind : kind;
  seed : int;
  smoke : bool;
  mutable items : item array;
  digest : (string, string) Hashtbl.t;  (** key -> deterministic fields *)
  quality : (string, float * int) Hashtbl.t;  (** key -> (miss ratio, winner doall) *)
  oracles : (string * string, Ast.program * Ast.program) Hashtbl.t;
      (** (key, printed program) -> the distinct (source, transformed)
          pairs awaiting the equivalence check *)
  mutable failures : string list;
}

let item_key = function Input i -> i.name | Exec_item e -> e.key
let source_of = function Input i -> i.prog | Exec_item e -> e.source

let has_code code ds = List.exists (fun (d : Diag.t) -> d.Diag.code = code) ds

let codes ds =
  match List.sort_uniq compare (List.map (fun (d : Diag.t) -> d.Diag.code) ds) with
  | [] -> "-"
  | cs -> String.concat "," cs

let fail run msg = run.failures <- msg :: run.failures

(* Record a response: its failure rule, its digest fields (which must
   repeat exactly for every request with the same key), the oracle pair
   and the per-layer counts. *)
let account run ~key ~item ~solver_calls response =
  let source = source_of item in
  let count_analysis (ctx : Inl.context) =
    if !Span.enabled then begin
      bump "deps" (float_of_int (List.length ctx.Inl.deps));
      bump "analyses" 1.
    end
  in
  let fields, ok =
    match response with
    | Failed m -> (m, false)
    | Optimized { ctx; outcome = o } -> (
        match o.Search.winner with
        | Some ({ Search.program = Some p; _ } as w) when not (Diag.has_errors o.Search.diags) ->
            let opt = function Some n -> string_of_int n | None -> "-" in
            let text = Pp.program_to_string p in
            Hashtbl.replace run.oracles (key, text) (source, p);
            (match (w.Search.misses, o.Search.source_misses) with
            | Some wm, Some sm when sm > 0 ->
                Hashtbl.replace run.quality key
                  (float_of_int wm /. float_of_int sm, Option.value o.Search.winner_doall ~default:0)
            | _ -> ());
            count_analysis ctx;
            if !Span.enabled then begin
              let f = o.Search.funnel in
              bump "generated" (float_of_int f.Search.generated);
              bump "illegal" (float_of_int f.Search.illegal);
              bump "scored" (float_of_int f.Search.scored);
              bump "reuse_pruned" (float_of_int f.Search.reuse_pruned);
              bump "simulated" (float_of_int f.Search.simulated);
              bump "out_bytes" (float_of_int (String.length text));
              bump "outputs" 1.;
              bump "verdicts" 1.;
              if has_code "V900" o.Search.diags then bump "v900" 1.
            end;
            ( Printf.sprintf "winner=%S misses=%s source=%s doall=%s out_bytes=%d"
                (Search.recipe_line w.Search.recipe)
                (opt w.Search.misses) (opt o.Search.source_misses) (opt o.Search.winner_doall)
                (String.length text),
              true )
        | _ -> ("no verified winner: " ^ codes o.Search.diags, false))
    | Verified { ctx; program; report } ->
        let ds = Verify.diags report in
        let text = Pp.program_to_string program in
        Hashtbl.replace run.oracles (key, text) (source, program);
        count_analysis ctx;
        if !Span.enabled then begin
          bump "out_bytes" (float_of_int (String.length text));
          bump "outputs" 1.;
          bump "verdicts" 1.;
          bump "findings" (float_of_int (List.length ds));
          if has_code "V900" ds then bump "v900" 1.
        end;
        ( Printf.sprintf "codes=%s out_bytes=%d solver_calls=%d,%d" (codes ds) (String.length text)
            (fst solver_calls) (snd solver_calls),
          not (Diag.has_errors ds) )
    | Executed { doall; plan; cells; diff } ->
        (match item with
        | Exec_item e ->
            Hashtbl.replace run.oracles (key, "") (source, e.program);
            if !Span.enabled then begin
              bump "doall" (float_of_int (Exec.doall_count doall));
              bump "out_bytes" (float_of_int (String.length (Pp.program_to_string e.program)));
              bump "outputs" 1.
            end
        | Input _ -> ());
        let plan = match Exec.plan_var plan with Some v -> "par:" ^ v | None -> "seq" in
        let fields = Printf.sprintf "plan=%s doall=%d cells=%d" plan (Exec.doall_count doall) cells in
        (match diff with Ok () -> (fields, true) | Error m -> (fields ^ " store_diff: " ^ m, false))
  in
  if not ok then fail run (Printf.sprintf "%s: %s" key fields)
  else
    match Hashtbl.find_opt run.digest key with
    | None -> Hashtbl.replace run.digest key fields
    | Some first when first = fields -> ()
    | Some first ->
        fail run (Printf.sprintf "%s: nondeterministic output: %s, then %s" key first fields)

(* One request of the run's workload; [size] is the optimize-warm
   simulation size.  Returns the response and its wall time. *)
let request run ~size item =
  let config_of ctx =
    let c = Search.config_for ctx in
    let c = if run.smoke then { c with Search.beam = 4; depth = 2 } else c in
    match size with Some size -> { c with Search.size } | None -> c
  in
  let t0 = now () in
  let response =
    Span.record "request" (fun () ->
        try
          match (run.kind, item) with
          | (Optimize_cold | Optimize_warm), Input inp -> optimize_pipeline ~config_of inp
          | Verify_wl, Input inp -> verify_pipeline inp
          | Exec_wl, Exec_item e -> exec_pipeline e
          | _ -> Failed "item does not belong to this workload"
        with e -> Failed ("exception: " ^ Printexc.to_string e))
  in
  (response, now () -. t0)

let prepare run =
  let inputs = load_inputs () in
  run.items <-
    (match run.kind with
    | Exec_wl -> Array.of_list (List.map (fun e -> Exec_item e) (exec_items inputs))
    | _ -> Array.of_list (List.map (fun i -> Input i) inputs))

let cold run = match run.kind with Optimize_cold | Verify_wl -> true | _ -> false

(* optimize-warm: input [key] in round [r] simulates at
   warm_sizes.((offset + r) mod 3), the offset drawn from the seed, so
   every input meets every size in any three consecutive rounds. *)
let warm_size run key r =
  match run.kind with
  | Optimize_warm ->
      let offset = Random.State.int (Random.State.make [| run.seed; Hashtbl.hash key |]) 3 in
      Some warm_sizes.((offset + r) mod Array.length warm_sizes)
  | Optimize_cold | Verify_wl | Exec_wl -> None

(* An untimed pass before the clock starts: each item once, in pinned
   order, at the optimize-warm sizes of round [pass]. *)
let warmup run ~pass =
  Array.iter
    (fun item ->
      if cold run then clear_memos ();
      ignore (request run ~size:(warm_size run (item_key item) pass) item))
    run.items

let shuffled ~seed ~round items =
  let a = Array.copy items in
  let st = Random.State.make [| seed; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The timed loop.  Returns one (request latencies in seconds, wall
   time) pair per round, in order. *)
let measure run ~seconds =
  let rounds = ref [] and requests = ref 0 in
  let t0 = now () in
  let continue () =
    let n = List.length !rounds in
    if run.smoke then n < 1 else n < 3 || !requests < min_requests || now () -. t0 < seconds
  in
  while continue () do
    let round = List.length !rounds in
    let r0 = now () in
    let latencies =
      Array.map
        (fun item ->
          let size = warm_size run (item_key item) round in
          let key =
            match size with
            | Some s -> Printf.sprintf "%s@%d" (item_key item) s
            | None -> item_key item
          in
          if cold run then clear_memos ();
          let traced = !Span.enabled in
          let memo0 = if traced then memo_counters () else [] in
          let alloc0 = if traced then alloc_bytes () else 0. in
          let calls0 = Omega.solver_calls () in
          Span.current_req := !Span.current_req + 1;
          Span.current_input := key;
          let response, dt = request run ~size item in
          let c1 = Omega.solver_calls () in
          let solver_calls = (fst c1 - fst calls0, snd c1 - snd calls0) in
          if traced then begin
            bump "alloc_bytes" (alloc_bytes () -. alloc0);
            bump "solver_calls" (float_of_int (snd solver_calls));
            List.iter2
              (fun (name, (h0, m0)) (_, (h1, m1)) ->
                bump (name ^ ".hits") (float_of_int (h1 - h0));
                bump (name ^ ".misses") (float_of_int (m1 - m0)))
              memo0 (memo_counters ())
          end;
          account run ~key ~item ~solver_calls response;
          dt)
        (shuffled ~seed:run.seed ~round run.items)
    in
    requests := !requests + Array.length latencies;
    rounds := (Array.to_list latencies, now () -. r0) :: !rounds
  done;
  List.rev !rounds

(* The independent oracle: every distinct transformed program must
   compute exactly what its source computes, under the interpreter at
   N=8 (untimed, after the loop). *)
let oracle run =
  Hashtbl.iter
    (fun (key, _) (source, prog) ->
      let params = List.map (fun p -> (p, 8)) source.Ast.params in
      match Interp.equivalent source prog ~params with
      | Ok () -> ()
      | Error m -> fail run (Printf.sprintf "%s: not equivalent to its source: %s" key m))
    run.oracles

let digest_text name run =
  Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %s %s" name k v :: acc) run.digest []
  |> List.sort compare |> String.concat "\n"
  |> fun s -> s ^ "\n"

(* VmHWM in MiB; without /proc, the OCaml heap's high-water mark *)
let peak_rss_mb () =
  let status = try read "/proc/self/status" with Sys_error _ -> "" in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status) with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- metrics ---- *)

let m name unit_ value = { Results.name; unit_; value }

(* Each round is one sample of the whole input mix; the timing figures
   are medians over the rounds, so a slow spell of the machine that
   covers less than half the run does not move them. *)
let end_to_end ~setup_s ~rounds =
  let over_rounds f = Results.median (List.map f rounds) in
  let pct p (latencies, _) = Results.percentile (List.map (fun s -> s *. 1e3) latencies) p in
  [
    m "setup_s" "s" setup_s;
    m "latency_ms_p50" "ms" (over_rounds (pct 50.));
    m "latency_ms_p90" "ms" (over_rounds (pct 90.));
    m "throughput_rps" "req/s"
      (over_rounds (fun (latencies, wall) -> float_of_int (List.length latencies) /. wall));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let ratio a b = if b = 0. then 0. else a /. b
let hit_rate name = ratio (count (name ^ ".hits")) (count (name ^ ".hits") +. count (name ^ ".misses"))

let per_layer run ~spans ~n ~rounds =
  let r = float_of_int n in
  let per_req_ms name = Span.total name spans /. r *. 1e3 in
  let opt_s = Span.total "optimize" spans in
  let phases = List.fold_left (fun acc p -> acc +. count ("phase." ^ p)) 0. search_phases in
  let ops = count "ops" in
  let geomean =
    let rs = Hashtbl.fold (fun _ (ratio, _) acc -> ratio :: acc) run.quality [] in
    match rs with
    | [] -> 0.
    | _ -> exp (List.fold_left (fun a x -> a +. log x) 0. rs /. float_of_int (List.length rs))
  in
  let inh = count "search.legality.delta-inherited" and chk = count "search.legality.delta-checked" in
  [
    m "parse.parse_ms" "ms" (per_req_ms "parse");
    m "depend.analyze_ms" "ms" (per_req_ms "analyze");
    m "depend.deps" "count" (ratio (count "deps") (count "analyses"));
    m "presburger.solver_calls" "count" (count "solver_calls" /. r);
    m "presburger.cache_hit_rate" "ratio" (hit_rate "presburger");
    m "search.optimize_ms" "ms" (per_req_ms "optimize");
    m "search.self_ms" "ms" ((opt_s -. phases) /. r *. 1e3);
    m "search.simulate_ms" "ms" (count "phase.simulate" /. r *. 1e3);
    m "search.candidates" "count" (count "generated" /. r);
    m "search.candidates_per_s" "1/s" (ratio (count "generated") opt_s);
    m "search.illegal_frac" "ratio" (ratio (count "illegal") (count "generated"));
    m "search.reuse_pruned_frac" "ratio" (ratio (count "reuse_pruned") (count "scored"));
    m "search.simulated" "count" (count "simulated" /. r);
    m "search.mat_memo_hit_rate" "ratio" (hit_rate "mat");
    m "search.trace_memo_hit_rate" "ratio" (hit_rate "trace");
    m "search.miss_ratio_geomean" "ratio" geomean;
    m "search.winner_doall_total" "count"
      (float_of_int (Hashtbl.fold (fun _ (_, d) acc -> acc + d) run.quality 0));
    m "legality.delta_inherit_rate" "ratio" (ratio inh (inh +. chk));
    m "legality.memo_hit_rate" "ratio" (hit_rate "legality");
    m "reuse.memo_hit_rate" "ratio" (hit_rate "reuse");
    m "core.materialize_ms" "ms" (per_req_ms "materialize");
    m "core.transform_ms" "ms" (per_req_ms "transform");
    m "core.out_bytes" "bytes" (ratio (count "out_bytes") (count "outputs"));
    m "verify.run_ms" "ms" (per_req_ms "verify");
    m "verify.findings" "count" (ratio (count "findings") r);
    m "verify.v900" "count" (count "v900" /. float_of_int rounds);
    m "verify.conclusive_frac" "ratio" (ratio (count "verdicts" -. count "v900") (count "verdicts"));
    m "interp.run_ms" "ms" (per_req_ms "interp.run");
    m "interp.ops" "count" (ops /. r);
    m "interp.ops_per_s" "1/s" (ratio ops (Span.total "interp.run" spans));
    m "interp.store_diff_ms" "ms" (per_req_ms "interp.store_diff");
    m "exec.analyze_ms" "ms" (per_req_ms "exec.analyze");
    m "exec.execute_ms" "ms" (per_req_ms "exec.execute");
    m "exec.doall_loops" "count" (count "doall" /. r);
    m "exec.par_over_seq" "ratio"
      (ratio (Span.total "exec.execute" spans) (Span.total "interp.run" spans));
    m "gc.alloc_mb_per_req" "MB" (count "alloc_bytes" /. r /. 1e6);
  ]

let print_metrics ms =
  List.iter (fun (x : Results.metric) -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit_) ms

(* Self time per layer, with the search's own phases split out of the
   optimize span through the Inl.Stats deltas. *)
let print_self_times ~spans ~n =
  let r = float_of_int n in
  let rows =
    List.concat_map
      (fun (name, self) ->
        if name = "optimize" then
          let phase p = ("optimize/" ^ p, count ("phase." ^ p)) in
          let ps = List.map phase search_phases in
          ("optimize/self", self -. List.fold_left (fun a (_, v) -> a +. v) 0. ps) :: ps
        else [ ((if name = "request" then "request/glue" else name), self) ])
      (Span.self_times spans)
  in
  let wall = Span.total "request" spans in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  Printf.printf "self time per layer (ms per request, share of request wall time):\n";
  List.iter
    (fun (name, v) -> Printf.printf "  %-24s %10.3f  %5.1f%%\n" name (v /. r *. 1e3) (100. *. ratio v wall))
    rows;
  Printf.printf "  self-time sum %.1f ms = %.2f%% of request wall %.1f ms\n" (sum *. 1e3)
    (100. *. ratio sum wall) (wall *. 1e3)

(* Tracing overhead: this traced run's end-to-end figures against the
   untraced run of the same workload and seed, when its result file is
   in the output directory. *)
let print_overhead ~out ~name ~seed traced =
  let path = Filename.concat out (Printf.sprintf "%s-s%d-t0.json" name seed) in
  match Results.load_run path with
  | None -> Printf.printf "tracing overhead: no untraced run at %s to compare with\n" path
  | Some untraced ->
      List.iter
        (fun (x : Results.metric) ->
          match List.assoc_opt x.name untraced.Results.values with
          | Some u when u <> 0. && x.name <> "setup_s" && x.name <> "peak_rss_mb" ->
              Printf.printf "tracing overhead: %s %.6g traced vs %.6g untraced (%+.2f%%)\n" x.name
                x.value u
                ((x.value -. u) /. u *. 100.)
          | _ -> ())
        traced

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let make_run ~kind ~seed ~smoke =
  (* Every workload runs its layers on one domain.  On a 2-core machine a
     second domain made the run-to-run spreads of optimize-cold and exec
     0.11-0.23 against 0.02-0.05 at one, wider than any bound this
     benchmark can hold (see README). *)
  Pool.set_jobs 1;
  {
    kind;
    seed;
    smoke;
    items = [||];
    digest = Hashtbl.create 64;
    quality = Hashtbl.create 64;
    oracles = Hashtbl.create 64;
    failures = [];
  }

(* Set-up, repeated from cold memos so setup_s is a median of identical
   work: load and prepare the pinned inputs, then the warm-up passes --
   one, or three on optimize-warm so its memos hold every (input, size)
   the timed loop asks for.  The first repetition is timed from process
   start.  Verify's set-up is short, so it repeats more often. *)
let setup run =
  let reps = match run.kind with Verify_wl -> 9 | Optimize_cold | Optimize_warm | Exec_wl -> 3 in
  let passes = match run.kind with Optimize_warm -> 3 | Optimize_cold | Verify_wl | Exec_wl -> 1 in
  let times =
    List.init reps (fun rep ->
        let t0 = if rep = 0 then t_start else now () in
        clear_memos ();
        prepare run;
        for pass = 0 to passes - 1 do
          warmup run ~pass
        done;
        now () -. t0)
  in
  if cold run then clear_memos ();
  Results.median times

let run_workload ~name ~kind ~seed ~seconds ~trace ~out =
  let run = make_run ~kind ~seed ~smoke:false in
  let setup_s = setup run in
  Span.enabled := trace;
  let rounds = measure run ~seconds in
  Span.enabled := false;
  let spans = Span.all () in
  let n = List.fold_left (fun acc (l, _) -> acc + List.length l) 0 rounds in
  let wall = List.fold_left (fun acc (_, w) -> acc +. w) 0. rounds in
  if trace then
    Array.iter
      (function
        | Exec_item e ->
            let ops = Interp.operation_count e.program ~params:e.params in
            bump "ops" (float_of_int (List.length rounds * ops))
        | Input _ -> ())
      run.items;
  oracle run;
  let e2e = end_to_end ~setup_s ~rounds in
  let metrics = if trace then per_layer run ~spans ~n ~rounds:(List.length rounds) else e2e in
  let digest = digest_text name run in
  let hex = Digest.to_hex (Digest.string digest) in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let base = Filename.concat out (Printf.sprintf "%s-s%d-t%d" name seed (if trace then 1 else 0)) in
  write_file (base ^ ".digest") digest;
  let failed = List.length run.failures in
  let correct = failed = 0 in
  let doc =
    J.Obj
      (Results.header ~workload:name ~seed ~trace ~jobs:(Pool.jobs ())
      @ [
          ("requests", J.Int n);
          ("rounds", J.Int (List.length rounds));
          ("failed", J.Int failed);
          ("correct", J.Bool correct);
          ("digest", J.String hex);
          ("metrics", Results.metrics_json metrics);
        ]
      @ if trace then [ ("traced_end_to_end", Results.metrics_json e2e) ] else [])
  in
  write_file (base ^ ".json") (J.to_string doc ^ "\n");
  Printf.printf "inlbench %s seed=%d: %d requests in %d rounds, %.2f s, jobs=%d of %d cores\n" name seed
    n (List.length rounds) wall (Pool.jobs ()) (Domain.recommended_domain_count ());
  Printf.printf "digest %s %s\n" name hex;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev run.failures);
  if trace then begin
    let trace_path = Filename.concat out (Printf.sprintf "%s-s%d.trace.json" name seed) in
    write_file trace_path (Span.to_chrome spans);
    Printf.printf "trace: %d spans written to %s\n" (List.length spans) trace_path;
    print_self_times ~spans ~n;
    print_overhead ~out ~name ~seed e2e
  end;
  Printf.printf "metrics (%d requests):\n" n;
  print_metrics metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int n);
            ("failed", J.Int (min n failed));
            ("metrics", Results.metrics_json metrics);
          ]));
  if correct then 0 else 1

(* ---- smoke: one request per input per workload, timings masked ---- *)

let smoke () =
  let text =
    List.map
      (fun (name, kind) ->
        let run = make_run ~kind ~seed:1 ~smoke:true in
        prepare run;
        ignore (measure run ~seconds:0.);
        oracle run;
        List.iter (fun f -> Printf.eprintf "FAILED %s %s\n" name f) (List.rev run.failures);
        (digest_text name run, run.failures = []))
      workloads
  in
  let digest = String.concat "" (List.map fst text) in
  print_string digest;
  let pinned_path = Filename.concat bench_dir "smoke.digest" in
  let pinned = try read pinned_path with Sys_error _ -> "" in
  let ok = List.for_all snd text in
  if pinned <> digest then Printf.eprintf "FAILED: digest differs from %s\n" pinned_path;
  if ok && pinned = digest then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".inlbench" and spec = ref "BENCHMARK.json" and smoke_mode = ref false in
  let anon = ref [] in
  let speclist =
    [
      ("--workload", Arg.Set_string workload, "W optimize-cold | optimize-warm | verify | exec");
      ("--seed", Arg.Set_int seed, "S shuffles the request order (and optimize-warm sizes)");
      ("--seconds", Arg.Set_float seconds, "T measure whole rounds until T seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1 1 records spans and reports the per-layer metrics");
      ("--out", Arg.Set_string out, "DIR result, digest and trace files (default .inlbench)");
      ("--spec", Arg.Set_string spec, "FILE metric bounds for compare (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke_mode, " one request per input per workload; assert the pinned digest");
    ]
  in
  let usage =
    "inlbench --workload W --seed S --seconds T --trace 0|1 [--out DIR]\n\
    \       inlbench --smoke\n\
    \       inlbench compare DIR_A DIR_B [--spec FILE]"
  in
  Arg.parse speclist (fun a -> anon := a :: !anon) usage;
  let code =
    match (List.rev !anon, !smoke_mode) with
    | [ "compare"; a; b ], _ -> Results.compare_dirs ~spec_path:!spec a b
    | [], true -> smoke ()
    | [], false -> (
        match List.assoc_opt !workload workloads with
        | Some kind when !trace = 0 || !trace = 1 ->
            run_workload ~name:!workload ~kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
              ~out:!out
        | _ ->
            prerr_endline usage;
            2)
    | _ ->
        prerr_endline usage;
        2
  in
  exit code
