(* Unit tests for the differential fuzzing harness: PRNG stability, the
   generator's well-formedness contract, recipe round-trips, the
   shrinker against synthetic oracles, the wall-clock watchdog, and the
   resumable batch driver run in-process against a scratch corpus. *)

module Rng = Inl_fuzz.Rng
module Gen = Inl_fuzz.Gen
module Tf = Inl_fuzz.Tf
module Oracle = Inl_fuzz.Oracle
module Shrink = Inl_fuzz.Shrink
module Corpus = Inl_fuzz.Corpus
module Driver = Inl_fuzz.Driver
module Watchdog = Inl_diag.Watchdog
module Faults = Inl_diag.Faults
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout
module Px = Inl_kernels.Paper_examples

(* ---- rng ---- *)

let test_rng_deterministic () =
  let draw rng = List.init 20 (fun _ -> Rng.int rng 1000) in
  Alcotest.(check (list int))
    "same (seed, index) = same stream"
    (draw (Rng.case ~seed:7 ~index:3))
    (draw (Rng.case ~seed:7 ~index:3));
  Alcotest.(check bool)
    "indices decorrelate" true
    (draw (Rng.case ~seed:7 ~index:3) <> draw (Rng.case ~seed:7 ~index:4));
  Alcotest.(check bool)
    "seeds decorrelate" true
    (draw (Rng.case ~seed:7 ~index:3) <> draw (Rng.case ~seed:8 ~index:3))

let test_rng_ranges () =
  let rng = Rng.case ~seed:1 ~index:0 in
  for _ = 1 to 500 do
    let v = Rng.range rng (-3) 3 in
    Alcotest.(check bool) "range inclusive" true (v >= -3 && v <= 3);
    let p = Rng.pick rng [ "a"; "b"; "c" ] in
    Alcotest.(check bool) "pick member" true (List.mem p [ "a"; "b"; "c" ])
  done;
  let xs = List.init 10 Fun.id in
  let sh = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "shuffle is a permutation" xs (List.sort compare sh)

(* ---- generator ---- *)

let test_gen_well_formed () =
  (* every generated case must validate, lay out, and pass the lint
     error-free — across many (seed, index) cells *)
  for seed = 0 to 4 do
    for index = 0 to 39 do
      let prog, tf = Gen.case ~seed ~index in
      (match Ast.validate prog with
      | () -> ()
      | exception Ast.Invalid msg -> Alcotest.failf "seed=%d index=%d invalid: %s" seed index msg);
      let layout = Layout.of_program prog in
      Alcotest.(check bool)
        (Printf.sprintf "seed=%d index=%d has instance positions" seed index)
        true
        (Layout.size layout > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed=%d index=%d lints clean" seed index)
        false
        (Inl.Diag.has_errors (Inl_verify.Lint.run prog));
      (* the recipe is shape-consistent: partial rows match the layout *)
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "seed=%d index=%d row width" seed index)
            (Layout.size layout) (List.length row))
        tf.Tf.partial
    done
  done

let test_gen_deterministic () =
  let p1, t1 = Gen.case ~seed:42 ~index:17 in
  let p2, t2 = Gen.case ~seed:42 ~index:17 in
  Alcotest.(check string)
    "program stable" (Inl.Pp.program_to_string p1) (Inl.Pp.program_to_string p2);
  Alcotest.(check string) "recipe stable" (Tf.to_string t1) (Tf.to_string t2)

(* ---- recipe round-trip ---- *)

let test_tf_roundtrip () =
  for seed = 0 to 2 do
    for index = 0 to 29 do
      let _, tf = Gen.case ~seed ~index in
      match Tf.of_string (Tf.to_string tf) with
      | Error msg -> Alcotest.failf "seed=%d index=%d does not re-parse: %s" seed index msg
      | Ok tf' ->
          Alcotest.(check string)
            (Printf.sprintf "seed=%d index=%d round-trips" seed index)
            (Tf.to_string tf) (Tf.to_string tf');
          Alcotest.(check bool)
            "expected_legal preserved" (Tf.expected_legal tf) (Tf.expected_legal tf')
    done
  done

let test_tf_reject_malformed () =
  List.iter
    (fun spec ->
      match Tf.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed recipe %S" spec)
    [
      "nonsense";
      "tf v1\nstep";
      "tf v1\nrow 1,x";
      "tf v1\nedit negrow";
      "tf v2";
      "tf v1\nstep skew J,I,x";
    ]

(* ---- shrinker against synthetic oracles ---- *)

let parse src = Inl_ir.Parser.parse_exn src

let big_src =
  "params N\n\
   do i = 1..N\n\
  \  S1: B(i) = A(i,i) + 1.0\n\
  \  do j = i..N\n\
  \    S2: A(i,j) = f()\n\
  \    S3: C(j) = A(i,j) * 2.0\n\
  \  enddo\n\
  \  S4: D(i,i) = B(i)\n\
   enddo\n"

let identity_tf = { Tf.steps = []; partial = []; edits = [] }

let has_stmt label (prog : Ast.program) =
  List.exists (fun (_, (s : Ast.stmt)) -> s.Ast.label = label) (Ast.stmts_with_paths prog)

let test_shrink_to_predicate () =
  (* "fails whenever S3 is present": the shrinker must keep exactly the
     failure-relevant statement and drop the rest *)
  let oracle p _ =
    if has_stmt "S3" p then
      Oracle.Finding { signature = Oracle.Crash; detail = "synthetic" }
    else Oracle.Pass "gone"
  in
  let prog, tf, attempts =
    Shrink.shrink ~oracle ~signature:Oracle.Crash ~max_attempts:500 (parse big_src) identity_tf
  in
  Alcotest.(check bool) "kept the trigger" true (has_stmt "S3" prog);
  Alcotest.(check bool) "dropped other statements" false
    (has_stmt "S1" prog || has_stmt "S4" prog);
  Alcotest.(check bool) "spent some attempts" true (attempts > 0);
  Alcotest.(check bool) "recipe untouched" true (Tf.to_string tf = Tf.to_string identity_tf)

let test_shrink_signature_guard () =
  (* reductions that change the signature are rejected: S2 alone crashes
     with a different signature, so dropping S3 must not be kept *)
  let oracle p _ =
    if has_stmt "S3" p then
      Oracle.Finding { signature = Oracle.Crash; detail = "synthetic" }
    else if has_stmt "S2" p then
      Oracle.Finding { signature = Oracle.Divergence; detail = "other" }
    else Oracle.Pass "gone"
  in
  let prog, _, _ =
    Shrink.shrink ~oracle ~signature:Oracle.Crash ~max_attempts:500 (parse big_src) identity_tf
  in
  Alcotest.(check bool) "signature preserved" true (has_stmt "S3" prog)

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let oracle _ _ =
    incr calls;
    Oracle.Finding { signature = Oracle.Crash; detail = "always" }
  in
  let _, _, attempts =
    Shrink.shrink ~oracle ~signature:Oracle.Crash ~max_attempts:7 (parse big_src) identity_tf
  in
  Alcotest.(check bool) "bounded" true (attempts <= 7 && !calls <= 7)

let test_shrink_tf_steps () =
  (* a recipe-dependent failure: the shrinker thins steps but keeps the
     failing one *)
  let failing = Inl.Pipeline.Scale ("i", 2) in
  let tf = { Tf.steps = [ Reverse "i"; failing; Reverse "j" ]; partial = []; edits = [] } in
  let oracle _ t =
    if List.mem failing t.Tf.steps then
      Oracle.Finding { signature = Oracle.Verdict_mismatch; detail = "synthetic" }
    else Oracle.Pass "gone"
  in
  let _, tf', _ =
    Shrink.shrink ~oracle ~signature:Oracle.Verdict_mismatch ~max_attempts:200 (parse big_src) tf
  in
  Alcotest.(check bool) "failing step kept" true (List.mem failing tf'.Tf.steps);
  Alcotest.(check int) "other steps dropped" 1 (List.length tf'.Tf.steps)

(* ---- watchdog ---- *)

let test_watchdog_basic () =
  (match Watchdog.with_timeout ~ms:5_000 (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "fast path" 42 v
  | Error _ -> Alcotest.fail "spurious timeout");
  match
    Watchdog.with_timeout ~ms:40 (fun () ->
        Watchdog.hang ();
        0)
  with
  | Ok _ -> Alcotest.fail "hang completed?"
  | Error elapsed -> Alcotest.(check bool) "took about the deadline" true (elapsed >= 0.02)

let test_watchdog_restores () =
  (* after a timeout fires, no stale deadline lingers *)
  (match Watchdog.with_timeout ~ms:40 (fun () -> Watchdog.hang ()) with
  | Ok () -> Alcotest.fail "hang completed?"
  | Error _ -> ());
  Alcotest.(check bool) "deadline cleared" false (Watchdog.active ());
  match Watchdog.with_timeout ~ms:5_000 (fun () -> Watchdog.poll (); 1) with
  | Ok v -> Alcotest.(check int) "usable after timeout" 1 v
  | Error _ -> Alcotest.fail "stale deadline leaked"

let test_watchdog_converts_injected_hang () =
  (* the acceptance drill, in-process: an injected solver hang becomes a
     timeout finding instead of wedging the harness *)
  (match Faults.parse "hang=0" with
  | Ok f -> Faults.install f
  | Error msg -> Alcotest.fail msg);
  Fun.protect
    ~finally:(fun () -> Faults.install Faults.none)
    (fun () ->
      let prog = parse Px.simplified_cholesky in
      match Oracle.run_case ~timeout_ms:100 prog identity_tf with
      | Oracle.Finding { signature = Oracle.Timeout; _ } -> ()
      | other -> Alcotest.failf "expected a timeout finding, got %s" (Oracle.outcome_to_string other))

(* ---- oracle sanity ---- *)

let test_oracle_passes_known_good () =
  (* completion from the canonical partial row on simplified Cholesky is
     the paper's own worked example: it must pass all three judges *)
  let prog = parse Px.simplified_cholesky in
  let tf = { Tf.steps = []; partial = [ [ 0; 0; 0; 1 ] ]; edits = [] } in
  match Oracle.run_case prog tf with
  | Oracle.Pass _ -> ()
  | other -> Alcotest.failf "expected pass, got %s" (Oracle.outcome_to_string other)

let test_oracle_skips_unmaterializable () =
  let prog = parse Px.simplified_cholesky in
  let steps = [ Inl.Pipeline.Interchange ("nope", "never") ] in
  let tf = { Tf.steps; partial = []; edits = [] } in
  match Oracle.run_case prog tf with
  | Oracle.Skip _ -> ()
  | other -> Alcotest.failf "expected skip, got %s" (Oracle.outcome_to_string other)

(* ---- driver: resume, quarantine, summary ---- *)

let scratch_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "inl_fuzz_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (match Corpus.ensure_dir dir with Ok () -> () | Error msg -> Alcotest.fail msg);
    dir

let run_driver cfg =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let result = Driver.run ~out cfg in
  Format.pp_print_flush out ();
  (result, Buffer.contents buf)

let base_cfg corpus =
  { Driver.seed = 42; cases = 3; timeout_ms = 0; corpus = Some corpus; shrink = true }

let test_driver_resume () =
  let dir = scratch_dir () in
  let r1, _ =
    match run_driver (base_cfg dir) with
    | Ok r, o -> (r, o)
    | Error msg, _ -> Alcotest.fail msg
  in
  Alcotest.(check int) "first leg completed" 3 r1.Driver.completed;
  (* "interrupt" after 3 cases, then ask for 5: resumes at case 4 *)
  let r2, out2 =
    match run_driver { (base_cfg dir) with Driver.cases = 5 } with
    | Ok r, o -> (r, o)
    | Error msg, _ -> Alcotest.fail msg
  in
  Alcotest.(check int) "second leg runs the remainder" 2 r2.Driver.completed;
  Alcotest.(check bool) "announces the resume point" true
    (let needle = "resuming at case 4 of 5" in
     let len = String.length needle in
     let n = String.length out2 in
     let rec find i = i + len <= n && (String.sub out2 i len = needle || find (i + 1)) in
     find 0);
  (* the split campaign equals the uninterrupted one *)
  let dir' = scratch_dir () in
  let r, _ =
    match run_driver { (base_cfg dir') with Driver.cases = 5 } with
    | Ok r, o -> (r, o)
    | Error msg, _ -> Alcotest.fail msg
  in
  Alcotest.(check int) "ok counts add up" r.Driver.ok (r1.Driver.ok + r2.Driver.ok);
  Alcotest.(check int) "skip counts add up" r.Driver.skipped (r1.Driver.skipped + r2.Driver.skipped)

let test_driver_seed_mismatch () =
  let dir = scratch_dir () in
  (match run_driver (base_cfg dir) with Ok _, _ -> () | (Error msg, _) -> Alcotest.fail msg);
  match run_driver { (base_cfg dir) with Driver.seed = 9 } with
  | Ok _, _ -> Alcotest.fail "expected a seed-mismatch refusal"
  | Error msg, _ ->
      Alcotest.(check bool) "names both seeds" true
        (let has sub =
           let n = String.length msg and l = String.length sub in
           let rec find i = i + l <= n && (String.sub msg i l = sub || find (i + 1)) in
           find 0
         in
         has "42" && has "9")

let test_driver_quarantine_and_replay () =
  (* force a deterministic timeout finding via an injected hang, then
     replay it from quarantine with the same fault configuration *)
  let dir = scratch_dir () in
  (match Faults.parse "hang=30" with
  | Ok f -> Faults.install f
  | Error msg -> Alcotest.fail msg);
  Fun.protect
    ~finally:(fun () -> Faults.install Faults.none)
    (fun () ->
      let cfg =
        {
          Driver.seed = 42;
          cases = 1;
          timeout_ms = 150;
          corpus = Some dir;
          shrink = false;
        }
      in
      match run_driver cfg with
      | Error msg, _ -> Alcotest.fail msg
      | Ok r, _ ->
          Alcotest.(check int) "one timeout finding" 1 r.Driver.timeout;
          let base = Filename.concat dir "finding-0-timeout" in
          Alcotest.(check bool) "program quarantined" true (Sys.file_exists (base ^ ".inl"));
          Alcotest.(check bool) "recipe quarantined" true (Sys.file_exists (base ^ ".tf"));
          let buf = Buffer.create 64 in
          let out = Format.formatter_of_buffer buf in
          let replayed = Driver.replay ~timeout_ms:150 ~out base in
          Format.pp_print_flush out ();
          (match replayed with
          | Ok true -> ()
          | Ok false -> Alcotest.fail "finding did not reproduce"
          | Error msg -> Alcotest.fail msg))

let test_corpus_cursor_atomicity () =
  let dir = scratch_dir () in
  Corpus.write_cursor ~dir { Corpus.seed = 5; cases_done = 17 };
  (match Corpus.read_cursor ~dir with
  | Ok (Some c) ->
      Alcotest.(check int) "seed" 5 c.Corpus.seed;
      Alcotest.(check int) "done" 17 c.Corpus.cases_done
  | _ -> Alcotest.fail "cursor did not round-trip");
  (* a mangled cursor is an explicit refusal, not a silent restart *)
  let oc = open_out (Filename.concat dir "cursor") in
  output_string oc "seed five\ndone some\n";
  close_out oc;
  match Corpus.read_cursor ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error on a mangled cursor"

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic per (seed, index)" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges and picks" `Quick test_rng_ranges;
        ] );
      ( "generator",
        [
          Alcotest.test_case "well-formed across seeds" `Quick test_gen_well_formed;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        ] );
      ( "recipes",
        [
          Alcotest.test_case "round-trip" `Quick test_tf_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_tf_reject_malformed;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "reduces to the trigger" `Quick test_shrink_to_predicate;
          Alcotest.test_case "preserves the signature" `Quick test_shrink_signature_guard;
          Alcotest.test_case "respects the attempt budget" `Quick test_shrink_respects_budget;
          Alcotest.test_case "thins recipe steps" `Quick test_shrink_tf_steps;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "timeout and fast path" `Quick test_watchdog_basic;
          Alcotest.test_case "deadline restored" `Quick test_watchdog_restores;
          Alcotest.test_case "injected hang becomes a timeout finding" `Quick
            test_watchdog_converts_injected_hang;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "passes the paper's completion" `Quick test_oracle_passes_known_good;
          Alcotest.test_case "skips unmaterializable recipes" `Quick
            test_oracle_skips_unmaterializable;
        ] );
      ( "driver",
        [
          Alcotest.test_case "resume at case k+1" `Quick test_driver_resume;
          Alcotest.test_case "seed mismatch refused" `Quick test_driver_seed_mismatch;
          Alcotest.test_case "quarantine and replay" `Quick test_driver_quarantine_and_replay;
          Alcotest.test_case "cursor round-trip and refusal" `Quick test_corpus_cursor_atomicity;
        ] );
    ]
