(* inltool — command-line driver for the imperfectly-nested-loop
   transformation framework.

     inltool show FILE            parse, validate, pretty-print + layout
     inltool deps FILE            dependence matrix (Section 3)
     inltool apply FILE OPTS      apply a transformation pipeline
     inltool complete FILE --row  complete a partial transformation
     inltool verify FILE          static lint + DOALL analysis
                                  (--against SRC adds translation validation)
     inltool run FILE -N n        interpret and dump the final store
                                  (--threads J executes the DOALL schedule)
     inltool analyze FILE --reuse static reuse (locality) report
     inltool optimize FILE        search for a locality-optimized loop order
     inltool fuzz                 differential fuzzing campaign / replay
     inltool corpus MANIFEST      crash-tolerant bulk optimize
     inltool serve                JSON-lines optimization daemon

   Transformations compose left to right:
     inltool apply chol.loop --reorder 0:1,0 --interchange I,J --verify 6

   Failure contract: diagnostics go to stderr as "severity[CODE] phase:
   message" lines; the exit code is 0 (clean), 1 (error), or 2 (the
   analysis degraded to approximate dependences but the command still
   succeeded).  Resource budgets and fault injection are controlled by
   --budget / INL_FM_BUDGET and --inject-faults / INL_FAULTS; the solver
   core is tuned by --jobs / INL_JOBS (worker domains), --no-cache
   (disable every process-wide memo) and --stats (report solver calls,
   per-memo hit rates and per-phase wall time to stderr). *)

module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify
module Exec = Inl_exec.Exec
module Cemit = Inl_exec.Cemit
module Search = Inl_search.Search
module Reuse = Inl_reuse.Reuse
module Memo = Inl_diag.Memo
module Diag = Inl.Diag
module Budget = Inl.Budget
module Faults = Inl.Faults
module Sigint = Inl_diag.Sigint
module Opt = Inl_diag.Opt
open Cmdliner

let print_diags ds = List.iter (fun d -> prerr_endline (Diag.to_string d)) ds

(* Print the diagnostics of a failed step; exit code 1. *)
let fail ds =
  print_diags ds;
  1

(* Loading untrusted input must end in a typed diagnostic, never an
   uncaught backtrace: I/O failures and anything unexpected the parser
   or analyzer lets slip become D704 driver errors (exit 1). *)
let load_with (f : string -> ('a, Diag.t list) result) path =
  match f (In_channel.with_open_bin path In_channel.input_all) with
  | result -> result
  | exception Sys_error msg -> Error [ Diag.error ~code:"D704" ~phase:Diag.Driver msg ]
  | exception e ->
      Error
        [
          Diag.errorf ~code:"D704" ~phase:Diag.Driver "unexpected failure loading %s: %s" path
            (Printexc.to_string e);
        ]

let load = load_with (fun src -> Inl.analyze_source_result src)

(* Parse without building a Layout: the verifier and the interpreter
   accept arbitrary program shapes — in particular codegen output. *)
let parse_only = load_with Inl.parse

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* An optional string (or file) argument, [None] when absent. *)
let some_arg ?(conv = Arg.string) ?env names ~docv ~doc =
  Arg.value (Arg.opt (Arg.some conv) None (Arg.info names ~docv ?env ~doc))

(* ---- numeric options: one reader per declaration (Inl_diag.Opt) ---- *)

(* Cmdliner parses the integer; the declaration's range check runs while
   the command line is evaluated, before any command body.  A refusal
   waits here for [setup], which answers it as D702 (exit 1). *)
let refused = ref []

let num_info ?names ?env ?(docv = "N") ~doc o =
  let names = Option.value names ~default:[ Opt.flag o ] in
  let check n =
    let name = List.find (fun n -> String.length n > 1) names in
    Result.iter_error (fun m -> refused := m :: !refused) (Opt.check ~name o n);
    n
  in
  (check, Arg.info names ~docv ?env ~doc:(Printf.sprintf "%s  Range: %s." doc (Opt.expected o)))

(* An option the command reads as [None] when it is absent. *)
let num_opt ?names ?env ?docv ~doc o =
  let check, arg_info = num_info ?names ?env ?docv ~doc o in
  Term.(const (Option.map check) $ Arg.(value & opt (some int) None & arg_info))

(* An option with a default: the declaration's, unless [default] is given. *)
let num ?names ?docv ?default ~doc o =
  let check, arg_info = num_info ?names ?docv ~doc o in
  let default = match default with Some d -> d | None -> Opt.default o in
  Term.(const check $ Arg.(value & opt int default & arg_info))

(* ---- common arguments: resource budget and fault injection ---- *)

let budget_arg =
  num_opt Opt.budget
    ~env:
      (Cmd.Env.info "INL_FM_BUDGET"
         ~doc:"Default for the $(b,--budget) option: Fourier-Motzkin work budget per projection.")
    ~doc:
      "Fourier-Motzkin work budget: items processed per Omega projection (default \
       $(b,500000)).  A projection that exhausts the budget degrades to a conservative \
       approximate dependence instead of aborting; the command then exits with code 2."

let faults_arg =
  some_arg [ "inject-faults" ] ~docv:"SPEC"
    ~env:(Cmd.Env.info "INL_FAULTS" ~doc:"Default for the $(b,--inject-faults) option.")
    ~doc:
      "Fault-injection spec for robustness testing: comma-separated $(b,key=value) pairs \
       among $(b,every=N) (fail every Nth projection), $(b,after=N) (fail all projections \
       after the Nth), $(b,cap=K) (cap the work budget at K items) and $(b,hang=N) (hang \
       every projection after the Nth — exercises the fuzz driver's wall-clock watchdog); \
       $(b,off) disables."

let jobs_arg =
  num_opt Opt.jobs ~names:[ "j"; "jobs" ]
    ~env:(Cmd.Env.info "INL_JOBS" ~doc:"Default for the $(b,--jobs) option.")
    ~doc:
      "Worker domains for the parallel analysis phases (default $(b,1): fully \
       sequential).  With N > 1, dependence queries, per-dependence legality checks, \
       completion-search structures and verification pairs fan out over N domains; \
       results are merged in deterministic order, so the output is byte-identical to a \
       sequential run."

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable every process-wide memo: the Omega projection cache (canonicalized solver \
           queries) and the legality, reuse-signature, materialization, completion and \
           simulation memos.  Results are identical either way; this exists for benchmarking \
           and debugging.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the command, print solver statistics to stderr: worker domains, solver \
           calls, one line per process-wide memo (hits, misses, evictions, entries and hit \
           rate, or $(b,disabled) under $(b,--no-cache)), wall time per phase and the \
           search counters.")

(* The --stats report: everything needed to judge whether the memoized,
   parallel solver core is earning its keep. *)
let report_stats () =
  let sat, proj = Inl.Omega.solver_calls () in
  Printf.eprintf "--- solver stats ---\n";
  Printf.eprintf "jobs: %d requested, %d effective (capped at the core count)\n"
    (Inl.Pool.requested_jobs ()) (Inl.Pool.jobs ());
  Printf.eprintf "solver calls: %d satisfiable, %d project\n" sat proj;
  List.iter
    (fun (name, on, (s : Memo.stats)) ->
      if on then
        Printf.eprintf "%s: %d hits, %d misses, %d evictions, %d entries (hit rate %.1f%%)\n"
          name s.hits s.misses s.evictions s.entries (100.0 *. Memo.hit_rate s)
      else Printf.eprintf "%s: disabled (--no-cache)\n" name)
    (Memo.all_stats ());
  List.iter
    (fun (phase, wall, calls) ->
      Printf.eprintf "phase %-10s %8.3f s (%d call%s)\n" phase wall calls
        (if calls = 1 then "" else "s"))
    (Inl.Stats.phases ());
  List.iter
    (fun (name, n) -> Printf.eprintf "counter %-24s %8d\n" name n)
    (Inl.Stats.counters ())

(* The setup scaffold every command runs in: it hands the command a
   runner.  The runner first refuses the command, exit 1, when a numeric
   option was out of range (D702, [refused] above; --budget/INL_FM_BUDGET
   and --jobs/INL_JOBS included) or the fault spec does not parse
   (D701).  Otherwise it installs budget, parallelism, cache and fault
   configuration and runs the command body — an output file it cannot
   write is a D704 error, not an uncaught exception — and, when --stats
   was given, prints the report after it without disturbing the exit
   code. *)
let setup budget faults jobs no_cache stats : (unit -> int) -> int =
 fun body ->
  let driver code msg = Diag.error ~code ~phase:Diag.Driver msg in
  let refusals = List.rev_map (driver "D702") !refused in
  match Option.fold ~none:(Ok Faults.none) ~some:Faults.parse faults with
  | Error msg -> fail (refusals @ [ driver "D701" msg ])
  | Ok _ when refusals <> [] -> fail refusals
  | Ok f ->
      Budget.install
        (Option.fold ~none:Budget.default ~some:(Budget.with_fm_work Budget.default) budget);
      Option.iter Inl.Pool.set_jobs jobs;
      Memo.set_all_enabled (not no_cache);
      Faults.install f;
      let code = try body () with Sys_error msg -> fail [ driver "D704" msg ] in
      if stats then report_stats ();
      code

let setup_term =
  Term.(const setup $ budget_arg $ faults_arg $ jobs_arg $ no_cache_arg $ stats_arg)

(* [setup] plus load: run [f ctx], merging exit codes (errors dominate,
   then degradation). *)
let with_context setup file (f : Inl.context -> int) : int =
  setup (fun () ->
      match load file with
      | Error ds -> fail ds
      | Ok ctx ->
          let code = f ctx in
          if code = 0 then Diag.exit_code ctx.Inl.diags else code)

let file_arg = Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE")

(* Combine exit codes from independent checks: errors dominate, then
   degradation, then clean. *)
let merge_code a b = if a = 1 || b = 1 then 1 else max a b

(* Render a translation-validation verdict; returns its exit code. *)
let render_verdict = function
  | Verify.Failed -> 1
  | Verify.Incomplete ->
      Printf.printf "\nstatic verification incomplete (see warnings)\n";
      2
  | Verify.Verified ->
      Printf.printf "\nstatically verified: instance sets and dependence order preserved\n";
      0

(* Static post-pass behind --check: translation validation of the
   generated program against the analyzed source. *)
let run_check (ctx : Inl.context) (prog : Inl.Ast.program) : int =
  let report = Verify.run ~against:ctx.Inl.program prog in
  print_diags (Verify.diags report);
  render_verdict (Verify.verdict report)

let nparam =
  num Opt.size ~names:[ "N"; "size" ] ~default:6 ~doc:"Value for the size parameter N."

(* ---- show ---- *)

let show_cmd =
  let run setup file =
    with_context setup file (fun ctx ->
        Format.printf "%s@." (Inl.Pp.program_to_string ctx.Inl.program);
        Format.printf "@.instance-vector positions:@.%a@." Inl.Layout.pp_positions ctx.Inl.layout;
        List.iter
          (fun (si : Inl.Layout.stmt_info) ->
            Format.printf "%s: loops=[%s] padded positions=[%s]@." si.Inl.Layout.label
              (String.concat ";"
                 (List.map (fun (_, (l : Inl.Ast.loop)) -> l.Inl.Ast.var) si.Inl.Layout.loops))
              (String.concat ";" (List.map string_of_int si.Inl.Layout.padded_pos)))
          ctx.Inl.layout.Inl.Layout.stmts;
        0)
  in
  Cmd.v (Cmd.info "show" ~doc:"Parse a program and print its instance-vector layout.")
    Term.(const run $ setup_term $ file_arg)

(* ---- deps ---- *)

let deps_cmd =
  let run setup file =
    with_context setup file (fun ctx ->
        Format.printf "%a@." Inl.Dep.pp_matrix ctx.Inl.deps;
        List.iter (fun d -> Format.printf "%a@." Inl.Dep.pp d) ctx.Inl.deps;
        print_diags ctx.Inl.diags;
        0)
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "Print the dependence matrix (Section 3).  Exits with code 2 when any dependence is \
          approximate (analysis budget exhausted or fault injected).")
    Term.(const run $ setup_term $ file_arg)

(* ---- apply ---- *)

exception Bad_step of string

(* Collect the step options in CLI order; the first malformed spec is a
   D702 driver error. *)
let collect_steps groups : (Inl.Pipeline.step list, Diag.t list) result =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | (kind, specs) :: rest -> (
        let parsed =
          List.fold_left
            (fun acc spec ->
              match acc with
              | Error _ as e -> e
              | Ok steps -> (
                  match Inl.Pipeline.step_of_spec ~kind spec with
                  | Ok s -> Ok (s :: steps)
                  | Error msg -> Error msg))
            (Ok []) specs
        in
        match parsed with
        | Ok steps -> go (List.rev steps :: acc) rest
        | Error msg -> Error [ Diag.error ~code:"D702" ~phase:Diag.Driver msg ])
  in
  go [] groups

(* Interpretation-based equivalence check behind --verify N. *)
let run_interp_verify (ctx : Inl.context) prog n : int =
  match Interp.equivalent ctx.Inl.program prog ~params:[ ("N", n) ] with
  | Ok () ->
      Printf.printf "\nverified equivalent at N = %d\n" n;
      0
  | Error d ->
      print_diags
        [ Diag.errorf ~code:"V601" ~phase:Diag.Interp "NOT EQUIVALENT at N = %d: %s" n d ];
      1

let list_opt name doc = Arg.(value & opt_all string [] & info [ name ] ~docv:"SPEC" ~doc)

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Statically verify the generated program against the source: instance-set and \
           dependence-order preservation plus the well-formedness lint (exit 1 on a \
           verification error, 2 when a check degraded under the resource budget).")

let verify_arg =
  num_opt Opt.size ~names:[ "verify" ] ~doc:"Check equivalence by interpretation at size N."

(* The shared back half of `apply` and `complete`: a total matrix goes
   through legality + codegen, then the optional post-passes. *)
let apply_matrix ctx ?(title = "transformation matrix") ?(no_simplify = false) ~verify ~check
    (total : Inl.Mat.t) : int =
  Format.printf "%s:@.%a@.@." title Inl.Mat.pp total;
  match Inl.transform ctx ~simplify:(not no_simplify) total with
  | Error ds -> fail (ctx.Inl.diags @ ds)
  | Ok prog ->
      Format.printf "%s@." (Inl.Pp.program_to_string prog);
      print_diags ctx.Inl.diags;
      let check_code = if check then run_check ctx prog else 0 in
      let verify_code = match verify with None -> 0 | Some n -> run_interp_verify ctx prog n in
      merge_code check_code verify_code

(* Load and materialize a .tf recipe — the one replay path shared by
   fuzz quarantine pairs and search winners.  Malformed or mismatched
   recipes are typed D705 driver errors, never backtraces. *)
let materialize_recipe ctx path : (Inl.Mat.t, Diag.t list) result =
  match Inl_fuzz.Tf.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg ->
      Error [ Diag.errorf ~code:"D705" ~phase:Diag.Driver "malformed recipe %s: %s" path msg ]
  | exception Sys_error msg -> Error [ Diag.error ~code:"D704" ~phase:Diag.Driver msg ]
  | Ok recipe -> (
      match Inl_fuzz.Tf.materialize ctx recipe with
      | Ok m -> Ok m
      | Error msg ->
          Error
            [
              Diag.errorf ~code:"D705" ~phase:Diag.Driver
                "recipe %s does not materialize against this program: %s" path msg;
            ]
      | exception e ->
          Error
            [
              Diag.errorf ~code:"D705" ~phase:Diag.Driver
                "recipe %s does not materialize against this program: %s" path
                (Printexc.to_string e);
            ])

let apply_cmd =
  let run setup file recipe interchanges reverses scales skews aligns reorders no_simplify
      verify check =
    with_context setup file (fun ctx ->
        let step_groups =
          [
            ("interchange", interchanges);
            ("reverse", reverses);
            ("scale", scales);
            ("skew", skews);
            ("align", aligns);
            ("reorder", reorders);
          ]
        in
        match recipe with
        | Some path when List.exists (fun (_, specs) -> specs <> []) step_groups ->
            fail
              [
                Diag.errorf ~code:"D703" ~phase:Diag.Driver
                  "--recipe %s cannot be combined with step options" path;
              ]
        | Some path -> (
            match materialize_recipe ctx path with
            | Error ds -> fail ds
            | Ok total -> apply_matrix ctx ~no_simplify ~verify ~check total)
        | None -> (
            match collect_steps step_groups with
            | Error ds -> fail ds
            | Ok [] ->
                fail [ Diag.error ~code:"D703" ~phase:Diag.Driver "no transformation steps given" ]
            | Ok steps -> (
                match Inl.pipeline ctx steps with
                | Error ds -> fail (ctx.Inl.diags @ ds)
                | Ok total -> apply_matrix ctx ~no_simplify ~verify ~check total)))
  in
  let no_simplify =
    Arg.(value & flag & info [ "no-simplify" ] ~doc:"Skip the cleanup pass of Section 5.5.")
  in
  let recipe =
    some_arg ~conv:Arg.non_dir_file [ "recipe" ] ~docv:"R.tf"
      ~doc:
        "Apply a transformation recipe file (the $(b,tf v1) format shared by fuzz \
         quarantine pairs and $(b,optimize) winners) instead of step options; the recipe \
         re-materializes against FILE through the normal pipeline."
  in
  Cmd.v
    (Cmd.info "apply" ~doc:"Apply a pipeline of loop transformations (Section 4).")
    Term.(
      const run $ setup_term $ file_arg $ recipe
      $ list_opt "interchange" "Interchange two loops: $(i,A,B)."
      $ list_opt "reverse" "Reverse a loop: $(i,V)."
      $ list_opt "scale" "Scale a loop: $(i,V,k)."
      $ list_opt "skew" "Skew target by source: $(i,T,S,f)."
      $ list_opt "align" "Align a statement w.r.t. a loop: $(i,S,L,k)."
      $ list_opt "reorder" "Reorder children of a node: $(i,PATH:p0,p1,...)."
      $ no_simplify $ verify_arg $ check_flag)

(* ---- complete ---- *)

let complete_cmd =
  let run setup file rows verify check =
    with_context setup file (fun ctx ->
        let row spec =
          try List.map (fun s -> int_of_string (String.trim s)) (String.split_on_char ',' spec)
          with Failure _ -> raise (Bad_step (Printf.sprintf "bad --row entry %S" spec))
        in
        match List.map (fun spec -> Inl.Vec.of_int_list (row spec)) rows with
        | exception Bad_step msg -> fail [ Diag.error ~code:"D702" ~phase:Diag.Driver msg ]
        | partial -> (
            match Inl.complete_result ctx ~partial with
            | Error ds -> fail (ctx.Inl.diags @ ds)
            | Ok m -> apply_matrix ctx ~title:"completed matrix" ~verify ~check m))
  in
  let rows =
    Arg.(value & opt_all string [] & info [ "row" ] ~docv:"a,b,..." ~doc:"A partial matrix row (repeatable; the first rows of the target matrix).")
  in
  Cmd.v
    (Cmd.info "complete" ~doc:"Complete a partial transformation (Section 6).")
    Term.(const run $ setup_term $ file_arg $ rows $ verify_arg $ check_flag)

(* ---- verify ---- *)

let verify_cmd =
  let run setup file against =
    setup (fun () ->
        match parse_only file with
        | Error ds -> fail ds
        | Ok prog -> (
            let source =
              match against with
              | None -> Ok None
              | Some src -> Result.map Option.some (parse_only src)
            in
            match source with
            | Error ds -> fail ds
            | Ok source ->
                let report = Verify.run ?against:source prog in
                print_endline (Verify.annotated prog report.Verify.loops);
                print_newline ();
                List.iter print_endline (Verify.loop_summary report.Verify.loops);
                let ds = Verify.diags report in
                print_diags ds;
                if Option.is_none source then Diag.exit_code ds
                else render_verdict (Verify.verdict report)))
  in
  let against =
    some_arg ~conv:Arg.non_dir_file [ "against" ] ~docv:"SRC"
      ~doc:
        "Source program to validate FILE against: proves instance-set preservation (no \
         dropped, extra or duplicated iterations) and dependence-order preservation."
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically analyze a program: well-formedness lint, DOALL (parallel-loop) detection, \
          and — with $(b,--against) — translation validation against a source program.  Exits \
          1 on verification errors, 2 on lint findings or budget-degraded checks.")
    Term.(const run $ setup_term $ file_arg $ against)

(* ---- run ---- *)

let run_cmd =
  let run setup file n recipe threads repeat no_timings emit_c =
    setup (fun () ->
        (* Without --recipe, parse-only on purpose: generated programs
           (If/Let nodes) have no instance-vector layout but interpret
           fine.  With --recipe the file must be a source program (the
           recipe re-materializes against its layout, exactly as
           `apply --recipe` would) and the transformed code is run. *)
        let prog_result =
          match recipe with
          | None -> parse_only file
          | Some rpath -> (
              match load file with
              | Error ds -> Error ds
              | Ok ctx -> (
                  match materialize_recipe ctx rpath with
                  | Error ds -> Error ds
                  | Ok total ->
                      Result.map_error (fun ds -> ctx.Inl.diags @ ds) (Inl.transform ctx total)))
        in
        match prog_result with
        | Error ds -> fail ds
        | Ok prog -> (
            (* every program parameter is bound to the -N size, as in the
               search's simulation tier *)
            let params = List.map (fun p -> (p, n)) prog.Inl.Ast.params in
            match (emit_c, threads) with
            | Some cpath, _ -> (
                match Exec.analyze prog with
                | exception Inl.Ast.Invalid msg ->
                    fail [ Diag.errorf ~code:"X802" ~phase:Diag.Exec "invalid program: %s" msg ]
                | doall ->
                    write_file cpath (Cemit.emit prog ~params ~doall);
                    Printf.printf "wrote %s (%d/%d loops doall)\n" cpath
                      (Exec.doall_count doall) (List.length doall);
                    0)
            | None, Some jobs -> (
                match Exec.benchmark ~jobs ~repeat prog ~params with
                | Error ds -> fail ds
                | Ok r ->
                    List.iter print_endline (Exec.render ~timings:(not no_timings) r);
                    print_diags r.Exec.notes;
                    Diag.exit_code r.Exec.notes)
            | None, None -> (
                match Interp.run prog ~params with
                | exception Invalid_argument msg ->
                    fail [ Diag.error ~code:"I601" ~phase:Diag.Interp msg ]
                | store ->
                    let cells = Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [] in
                    List.iter
                      (fun ((name, idx), v) ->
                        Printf.printf "%s(%s) = %.6g\n" name
                          (String.concat "," (List.map string_of_int idx))
                          v)
                      (List.sort compare cells);
                    0)))
  in
  let recipe =
    some_arg ~conv:Arg.non_dir_file [ "recipe" ] ~docv:"R.tf"
      ~doc:
        "Run the program under this transformation recipe (the $(b,tf v1) format written \
         by $(b,optimize)): the recipe re-materializes against FILE and the generated \
         code is executed."
  in
  let threads =
    num_opt Opt.threads
      ~doc:
        "Execute for real and report wall-clock timings: the outermost provably-DOALL \
         dimension is chunked over N worker domains (the other levels run sequentially), \
         the parallel store is differentially checked against the sequential interpreter \
         before any timing is reported, and the report carries the honest core count.  \
         Without a DOALL dimension the run degrades to sequential with a typed $(b,X901) \
         / $(b,X902) warning (exit 2)."
  in
  let repeat =
    num Opt.repeat ~docv:"K"
      ~doc:"Timing runs per variant under $(b,--threads); the minimum is reported."
  in
  let no_timings =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:
            "Report the execution plan and differential verdict with every wall time masked \
             as $(b,-): byte-stable output for tests.")
  in
  let emit_c =
    some_arg [ "emit-c" ] ~docv:"FILE.c"
      ~doc:
        "Instead of executing, lower the program to a self-contained C99 file with \
         $(b,#pragma omp parallel for) on every proven-DOALL dimension (array extents \
         measured at size $(b,-N)); emit-only — nothing compiles it here."
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Interpret the program and dump the final array contents; with $(b,--threads), \
          execute the DOALL schedule on worker domains and report measured speedups; with \
          $(b,--emit-c), emit C/OpenMP instead.  Accepts any parseable program, including \
          generated code with guards and lets.")
    Term.(
      const run $ setup_term $ file_arg $ nparam $ recipe $ threads $ repeat $ no_timings
      $ emit_c)

(* ---- optimize ---- *)

let optimize_cmd =
  let run setup file beam depth finalists size seed out =
    with_context setup file (fun ctx ->
        let config = Search.configure ~ctx ?beam ?depth ?finalists ?size ?seed () in
        Sigint.install ();
        try
        let o = Search.optimize ~config ctx in
        let f = o.Search.funnel in
        Printf.printf
          "search: generated=%d materialize-failed=%d duplicate=%d pruned-illegal=%d \
           scored=%d classes=%d pruned-equivalent=%d simulated=%d sim-shared=%d \
           sim-skipped=%d\n"
          f.Search.generated f.Search.materialize_failed f.Search.duplicate f.Search.illegal
          f.Search.scored f.Search.reuse_classes f.Search.reuse_pruned f.Search.simulated
          f.Search.sim_shared f.Search.sim_skipped;
        (match (o.Search.source_accesses, o.Search.source_misses) with
        | Some a, Some m ->
            Printf.printf "source: accesses=%d misses=%d miss-rate=%.2f%%\n" a m
              (100.0 *. float_of_int m /. float_of_int a)
        | _ -> ());
        Printf.printf "%4s  %10s  %8s  %6s  %s\n" "rank" "static" "misses" "miss%" "recipe";
        List.iter
          (fun (e : Search.entry) ->
            let misses, rate =
              match (e.Search.misses, e.Search.accesses) with
              | Some m, Some a ->
                  (string_of_int m, Printf.sprintf "%.2f%%" (100.0 *. float_of_int m /. float_of_int a))
              | _ -> ("-", "-")
            in
            Printf.printf "%4d  %10.3f  %8s  %6s  %s\n" e.Search.rank e.Search.static_score
              misses rate
              (Search.recipe_line e.Search.recipe))
          o.Search.entries;
        print_diags ctx.Inl.diags;
        print_diags o.Search.diags;
        (match o.Search.winner with
        | None -> 1
        | Some w ->
            let prog = Option.get w.Search.program in
            Printf.printf "\nwinner: %s\n" (Search.recipe_line w.Search.recipe);
            (match o.Search.winner_doall with
            | Some k when k > 0 ->
                Printf.printf "winner doall: %d parallel loop(s) — runnable with `inltool run --threads`\n" k
            | Some 0 -> Printf.printf "winner doall: none (sequential schedule)\n"
            | _ -> ());
            let prefix =
              match out with Some p -> p | None -> Filename.remove_extension file ^ ".opt"
            in
            write_file (prefix ^ ".loop") (Inl.Pp.program_to_string prog ^ "\n");
            write_file (prefix ^ ".tf") (Inl_fuzz.Tf.to_string w.Search.recipe);
            Printf.printf "wrote %s.loop and %s.tf\n" prefix prefix;
            Format.printf "@.%s@." (Inl.Pp.program_to_string prog);
            Diag.exit_code o.Search.diags)
        with Sigint.Interrupted ->
          (* honoured at generation boundaries inside the search: flush
             the stats report (the setup scaffold's) and exit 130
             instead of dying mid-write *)
          prerr_endline "optimize: interrupted; no winner written";
          Sigint.exit_code)
  in
  let beam =
    num_opt Opt.beam ~docv:"B"
      ~doc:"Beam width of the move search (default: 8, widened to 12 on kernels with \
           at least 8 layout columns)."
  in
  let depth =
    num_opt Opt.depth ~docv:"D"
      ~doc:"Move generations after the completion seeds (default: 3, widened to 4 on \
           kernels with at least 8 layout columns)."
  in
  let finalists =
    num_opt Opt.finalists ~docv:"K"
      ~doc:"Statically ranked candidates promoted to the cache-simulation tier \
           (default: 6)."
  in
  let size =
    num_opt Opt.size
      ~doc:"Problem size for the simulation tier (every program parameter is bound to N; \
           default: 48)."
  in
  let seed =
    num_opt Opt.seed ~docv:"S"
      ~doc:"Search seed (default: 0; used only to subsample oversized move sets; the \
           search is deterministic for a fixed seed, independent of $(b,--jobs))."
  in
  let out =
    some_arg [ "o"; "out" ] ~docv:"PREFIX"
      ~doc:
        "Output prefix for the winning program ($(i,PREFIX).loop) and its replayable recipe \
         ($(i,PREFIX).tf); defaults to FILE minus its extension plus $(b,.opt)."
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Search the legal transformation space for a locality-optimized loop order: a \
          deterministic beam search seeded by the Section 6 completion procedure, pruned by \
          the exact legality test, ranked by a static reuse/stride model, with the finalists \
          scored by cache simulation.  The winner is statically validated against the source \
          ($(b,Inl_verify)) before being written; exits 1 when no candidate survives, 2 under \
          degraded analysis or degraded search tiers.")
    Term.(const run $ setup_term $ file_arg $ beam $ depth $ finalists $ size $ seed $ out)

(* ---- analyze ---- *)

let analyze_cmd =
  let run setup file reuse recipe work line_elems =
    with_context setup file (fun ctx ->
        if not reuse then begin
          print_diags
            [ Diag.error ~code:"D707" ~phase:Diag.Driver "no analysis selected (try --reuse)" ];
          1
        end
        else
          let matrix =
            match recipe with
            | None -> Ok (Inl.Mat.identity (Inl.Layout.size ctx.Inl.layout))
            | Some path -> materialize_recipe ctx path
          in
          match matrix with
          | Error ds ->
              print_diags ds;
              1
          | Ok m -> (
              match Inl.check ctx m with
              | Inl.Legality.Illegal reason ->
                  print_diags
                    [
                      Diag.errorf ~code:"L302" ~phase:Diag.Legality "illegal transformation: %s"
                        reason;
                    ];
                  1
              | Inl.Legality.Legal { structure; _ } ->
                  let work_budget =
                    match work with
                    | Some _ -> work
                    | None -> Some (Budget.current ()).Budget.fm_work
                  in
                  let report = Reuse.analyze ?work_budget ?line_elems ctx structure in
                  print_string (Reuse.render report);
                  print_diags ctx.Inl.diags;
                  print_diags report.Reuse.diags;
                  Diag.exit_code (ctx.Inl.diags @ report.Reuse.diags)))
  in
  let reuse =
    Arg.(
      value & flag
      & info [ "reuse" ]
          ~doc:
            "Report the static reuse classification: every array reference of every statement, \
             classified per transformed loop dimension as temporal, spatial(stride) or none by \
             propagating subscript deltas through the inverse per-statement transformation.  \
             Findings are typed warnings ($(b,U101) no innermost reuse, $(b,U102) an outer \
             loop's temporal reuse could be permuted innermost, $(b,U901) singular \
             per-statement transformation, $(b,U902) work budget exhausted), so the exit code \
             is 2 when the analysis found something or degraded.")
  in
  let recipe =
    some_arg ~conv:Arg.non_dir_file [ "recipe" ] ~docv:"R.tf"
      ~doc:
        "Analyze the program under this transformation recipe (the $(b,tf v1) format) \
         instead of the identity: the report then describes the locality of the \
         {e transformed} loop order."
  in
  let work =
    num_opt Opt.work ~docv:"W"
      ~doc:
        "Classification work budget, one unit per reference x loop dimension (default: the \
         Fourier-Motzkin work allowance of $(b,--budget)).  Statements past the cap are \
         reported unclassified ($(b,U902)) and scored pessimistically."
  in
  let line_elems =
    num_opt Opt.line_elems ~docv:"E"
      ~doc:
        "Cache line size in array elements (default 8 = 64-byte lines of 8-byte \
         elements); strides of E or more elements count as no spatial reuse."
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static locality analysis of a program (identity or a transformed schedule): the \
          reuse-vocabulary report behind the autotuner's static tier, as a user-facing \
          diagnostic pass.  Exits 0 when every reference has innermost reuse, 2 on findings \
          or degraded classification, 1 on errors.")
    Term.(const run $ setup_term $ file_arg $ reuse $ recipe $ work $ line_elems)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run setup seed cases timeout_ms corpus no_shrink replay =
    setup (fun () ->
        let driver_error msg = fail [ Diag.error ~code:"D706" ~phase:Diag.Driver msg ] in
        match replay with
        | Some base -> (
            match Inl_fuzz.Driver.replay ~timeout_ms base with
            | Error msg -> driver_error msg
            | Ok reproduced -> if reproduced then 1 else 0)
        | None -> (
            Sigint.install ();
            let cfg =
              { Inl_fuzz.Driver.seed; cases; timeout_ms; corpus; shrink = not no_shrink }
            in
            match Inl_fuzz.Driver.run ~stop:Sigint.requested cfg with
            | Error msg -> driver_error msg
            | Ok report ->
                if report.Inl_fuzz.Driver.interrupted then Sigint.exit_code
                else if Inl_fuzz.Driver.findings report > 0 then 1
                else 0))
  in
  let seed =
    num Opt.seed
      ~doc:
        "Campaign seed.  Cases are derived independently from (seed, index), so the case \
         stream is reproducible and stable under interruption and resume."
  in
  let cases = num Opt.cases ~docv:"K" ~doc:"Number of cases to run." in
  let timeout_ms =
    num Opt.timeout_ms ~docv:"T"
      ~doc:
        "Per-case wall-clock watchdog in milliseconds (0 disables).  A case that exceeds \
         it is retried once under a sharply reduced solver budget, then recorded as a \
         $(b,timeout) finding."
  in
  let corpus =
    some_arg [ "corpus" ] ~docv:"DIR"
      ~doc:
        "Corpus directory: findings are quarantined here as replayable \
         $(b,finding-<case>-<signature>) file pairs, and a cursor file makes the campaign \
         resumable — rerunning with the same seed continues at the first case not yet \
         done."
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Quarantine findings as generated, skipping delta-debugging reduction.")
  in
  let replay =
    some_arg [ "replay" ] ~docv:"BASE"
      ~doc:
        "Replay one quarantined finding ($(i,BASE).inl + $(i,BASE).tf; a trailing .inl or \
         .tf is accepted) instead of running a campaign; exits 1 when the finding \
         reproduces."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random loop nests and transformation recipes, then \
          compare the legality test, the static translation validator and the interpreter on \
          each case.  Any disagreement, crash or hang is shrunk, quarantined and reported; \
          exits 1 when the campaign produced findings.")
    Term.(const run $ setup_term $ seed $ cases $ timeout_ms $ corpus $ no_shrink $ replay)

(* ---- corpus ---- *)

let corpus_cmd =
  let module Manifest = Inl_corpus.Manifest in
  let module Runner = Inl_corpus.Runner in
  let module Record = Inl_corpus.Record in
  let code_of_records records =
    let has st = List.exists (fun (r : Record.t) -> r.Record.status = st) records in
    if has Record.Quarantined || has Record.Failed then 1
    else if has Record.Degraded then 2
    else 0
  in
  let run setup manifest_path state timeout_ms no_timings out_file =
    setup (fun () ->
        Sigint.install ();
        match Manifest.load manifest_path with
        | Error ds -> fail ds
        | Ok manifest -> (
            let cfg =
              {
                Runner.manifest;
                state_dir = state;
                timeout_ms;
                timings = not no_timings;
                jobs = Inl.Pool.jobs ();
              }
            in
            match Runner.run ~stop:Sigint.requested cfg with
            | Error ds -> fail ds
            | Ok report ->
                if report.Runner.interrupted then Sigint.exit_code
                else (
                  write_file out_file (Runner.render cfg report.Runner.records);
                  Printf.printf "wrote %s\n" out_file;
                  code_of_records report.Runner.records)))
  in
  let manifest_arg =
    Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"MANIFEST")
  in
  let state =
    some_arg [ "state" ] ~docv:"DIR"
      ~doc:
        "State directory: the resumable checkpoint and quarantined kernel findings live \
         here.  After every kernel the full record set is checkpointed crash-safely \
         (write-temp + fsync + rename, checksummed header); a rerun restores completed \
         kernels and continues.  Without it the run is not persisted."
  in
  let timeout_ms =
    num Opt.timeout_ms ~docv:"T"
      ~doc:
        "Default per-kernel wall-clock watchdog in milliseconds (0 disables; a \
         manifest entry's $(b,timeout_ms) key overrides).  A kernel that exceeds it is \
         retried once under a sharply reduced budget, then quarantined as a typed \
         $(b,timeout) finding — the batch always continues."
  in
  let no_timings =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:
            "Record every kernel's wall time as 0, making the report a pure function of the \
             manifest, seed and configuration — byte-identical across runs, including a \
             SIGKILLed run resumed from its checkpoint (the acceptance drill).")
  in
  let out_file =
    Arg.(
      value & opt string "BENCH_corpus.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the consolidated JSON report.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Crash-tolerant bulk optimization over a kernel manifest: run the full pipeline \
          (analyze, optimize, verify, simulate) on every kernel, each under its own budget, \
          watchdog and fault scope with one reduced-budget retry; hung or crashing kernels \
          are quarantined as replayable findings instead of aborting the batch, progress is \
          checkpointed after every kernel for SIGKILL-safe resume, and the consolidated \
          per-kernel report (miss counts, wall times, delta-inherit and memo rates, \
          degradation tags) is written as JSON.  Exits 0 all clean, 1 quarantined/failed \
          kernels, 2 degraded, 130 interrupted.")
    Term.(const run $ setup_term $ manifest_arg $ state $ timeout_ms $ no_timings $ out_file)

(* ---- serve ---- *)

let serve_cmd =
  let module Server = Inl_serve.Server in
  let run setup socket connect state queue_cap timeout_ms max_bytes checkpoint_every =
    setup (fun () ->
        match connect with
        | Some path -> Server.client ~socket:path
        | None ->
            let config =
              {
                Server.socket;
                state_dir = state;
                queue_cap;
                request_timeout_ms = timeout_ms;
                max_request_bytes = max_bytes;
                checkpoint_every;
              }
            in
            Server.run config)
  in
  let socket =
    some_arg [ "socket" ] ~docv:"PATH"
      ~doc:
        "Listen on a Unix domain socket at $(i,PATH) instead of serving stdin/stdout; \
         multiple clients may connect concurrently."
  in
  let connect =
    some_arg [ "connect" ] ~docv:"PATH"
      ~doc:
        "Client mode: forward request lines from stdin to the daemon at $(i,PATH) and \
         print its response lines.  The dial is retried briefly, so a script may start \
         daemon and client together."
  in
  let state =
    some_arg [ "state" ] ~docv:"DIR"
      ~doc:
        "State directory: the projection-cache snapshot ($(b,cache.snap)) and the fuzz \
         corpus live here.  The snapshot is checkpointed crash-safely (write-temp + \
         fsync + rename, checksummed header) and restored on startup, so a restarted \
         daemon starts warm; a corrupt snapshot is a warning and a cold start."
  in
  let queue_cap =
    num Opt.queue_cap
      ~doc:
        "Bounded request-queue capacity.  Arrivals beyond it are rejected immediately \
         with a typed $(b,R704) response instead of being buffered without bound."
  in
  let timeout_ms =
    num Opt.timeout_ms ~docv:"T"
      ~doc:
        "Default per-request deadline in milliseconds (0 disables; a request's own \
         $(b,timeout_ms) field overrides).  A request that exceeds it is retried once \
         under a sharply reduced budget, then answered with $(b,R706)."
  in
  let max_bytes =
    num Opt.max_request_bytes
      ~doc:"Longest accepted request line; longer lines are rejected with $(b,R705)."
  in
  let checkpoint_every =
    num Opt.checkpoint_every
      ~doc:
        "Snapshot the projection cache every $(i,N) requests (0: only on drain).  A \
         final checkpoint always runs on clean drain and on SIGTERM."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running optimization service: accept $(b,analyze), $(b,verify), \
          $(b,optimize), $(b,fuzz), $(b,stats), $(b,ping) and $(b,shutdown) requests as one \
          JSON object per line on stdin (responses on stdout) or on a Unix socket \
          ($(b,--socket)).  Every request runs under its own budget, deadline and \
          fault-injection scope; failures degrade that one request to a typed diagnostic — \
          the daemon keeps serving.  Exits 0 on a clean drain, 1 when some request was \
          answered with an error or produced fuzz findings, 2 on an internal fault.")
    Term.(
      const run $ setup_term $ socket $ connect $ state $ queue_cap $ timeout_ms $ max_bytes
      $ checkpoint_every)

let () =
  let doc = "transformations for imperfectly nested loops (Kodukula-Pingali, SC'96)" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success with an exact analysis.";
      Cmd.Exit.info 1 ~doc:"on errors (parse failure, illegal transformation, failed search).";
      Cmd.Exit.info 2
        ~doc:
          "on success under a degraded (approximate) dependence analysis — some Omega \
           projection exhausted its resource budget and was replaced by a conservative \
           dependence.";
    ]
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Dependence analysis runs on an exact integer Fourier-Motzkin engine whose worst case \
         is super-exponential, so every projection is resource-bounded (work items, \
         coefficient bit growth, projection count).  When a projection exhausts its budget \
         the analyzer does not fail: it substitutes a conservative dependence (direction \
         unknown at every position beyond the carrying level), marks it approximate, and the \
         legality test can then only become stricter — transformed programs remain correct, \
         some legal transformations may be refused.";
      `P
        "Diagnostics are printed to stderr as 'severity[CODE] phase: message' lines.  The \
         fault-injection option exists to exercise the degraded path deterministically in \
         tests and operations drills.";
    ]
  in
  let info = Cmd.info "inltool" ~version:"1.1.0" ~doc ~exits ~man in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            show_cmd;
            deps_cmd;
            apply_cmd;
            complete_cmd;
            verify_cmd;
            run_cmd;
            analyze_cmd;
            optimize_cmd;
            fuzz_cmd;
            corpus_cmd;
            serve_cmd;
          ]))
