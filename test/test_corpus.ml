(* The corpus bulk runner's parts in isolation:

   - Manifest: the line dialect, typed K700/K701 rejections, relative
     path resolution, override parsing, fingerprinting;
   - Record: the escaped tab-separated line round-trips every status and
     survives hostile string fields (the checkpoint payload is exactly
     these lines);
   - Runner: checkpointing end to end on a real (tiny) kernel —
     resume skips completed records, a config mismatch is a typed K703
     refusal, a corrupt checkpoint is a typed K704 cold start;
   - Options: every declared numeric option, on every front end that
     takes it (CLI, serve, manifest), accepts its minimum and refuses
     one less with that front end's code. *)

module Diag = Inl_diag.Diag
module Snapshot = Inl_serve.Snapshot
module Manifest = Inl_corpus.Manifest
module Opt = Inl_diag.Opt
module Record = Inl_corpus.Record
module Runner = Inl_corpus.Runner

let null_out = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let tmpdir () =
  let dir = Filename.temp_file "inl-corpus-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let write path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let with_manifest text f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "m.manifest" in
      write path text;
      f dir (Manifest.load path))

let expect_codes what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error ds ->
      Alcotest.(check (list string)) what expected (List.map (fun d -> d.Diag.code) ds)

(* ---- manifest ---- *)

let test_manifest_ok () =
  with_manifest
    "# comment line\n\
     kernel a x.loop\n\
     \t kernel b sub/y.loop seed=7 beam=3 depth=2 finalists=1 size=16 timeout_ms=0 \
     budget=1000 faults=every=2 run=4 threads=2\n\
     kernel c /abs/z.loop\n"
    (fun dir m ->
      match m with
      | Error ds -> Alcotest.failf "rejected: %s" (Diag.list_to_string ds)
      | Ok m ->
          Alcotest.(check int) "entries" 3 (List.length m.Manifest.entries);
          let b = List.nth m.Manifest.entries 1 in
          Alcotest.(check string) "relative path resolved" (Filename.concat dir "sub/y.loop")
            b.Manifest.path;
          Alcotest.(check (option int)) "seed" (Some 7) (Manifest.num b Opt.seed);
          Alcotest.(check (option int)) "beam" (Some 3) (Manifest.num b Opt.beam);
          Alcotest.(check (option int))
            "timeout may be zero" (Some 0) (Manifest.num b Opt.timeout_ms);
          Alcotest.(check (option string)) "faults" (Some "every=2") b.Manifest.faults;
          Alcotest.(check (option int)) "run" (Some 4) (Manifest.num b Opt.run);
          Alcotest.(check (option int)) "threads" (Some 2) (Manifest.num b Opt.threads);
          let c = List.nth m.Manifest.entries 2 in
          Alcotest.(check string) "absolute path kept" "/abs/z.loop" c.Manifest.path;
          Alcotest.(check bool) "fingerprint nonempty" true (m.Manifest.fingerprint <> ""))

let test_manifest_fingerprint_tracks_text () =
  let fp text = with_manifest text (fun _ m -> (Result.get_ok m).Manifest.fingerprint) in
  Alcotest.(check bool)
    "any edit changes the fingerprint" true
    (fp "kernel a x.loop\n" <> fp "kernel a x.loop seed=1\n")

let test_manifest_rejections () =
  with_manifest "" (fun _ m -> expect_codes "empty" [ "K701" ] m);
  with_manifest "kernel a x.loop extra\n" (fun _ m ->
      expect_codes "bare word" [ "K701" ] m);
  with_manifest "kernel a x.loop colour=blue\n" (fun _ m ->
      expect_codes "unknown key" [ "K701" ] m);
  with_manifest "kernel a x.loop beam=0\n" (fun _ m ->
      expect_codes "beam below minimum" [ "K701" ] m);
  with_manifest "kernel a x.loop seed=many\n" (fun _ m ->
      expect_codes "non-integer" [ "K701" ] m);
  with_manifest "kernel a x.loop faults=bogus\n" (fun _ m ->
      expect_codes "bad fault spec" [ "K701" ] m);
  with_manifest "kernel a/b x.loop\n" (fun _ m ->
      expect_codes "name with separator" [ "K701" ] m);
  with_manifest "kernel a x.loop\nkernel a y.loop\n" (fun _ m ->
      expect_codes "duplicate name" [ "K701" ] m);
  with_manifest "kremel a x.loop\n" (fun _ m ->
      expect_codes "unknown directive" [ "K701" ] m);
  with_manifest "kernel a\n" (fun _ m -> expect_codes "missing path" [ "K701" ] m);
  expect_codes "unreadable file" [ "K700" ] (Manifest.load "/nonexistent/m.manifest")

(* ---- record ---- *)

let sample_record =
  {
    Record.name = "k-1";
    status = Record.Quarantined;
    signature = "timeout";
    detail = "kernel exceeded its 300 ms deadline\twith a tab\nand a newline \\ backslash";
    winner = "";
    source_misses = 4117;
    winner_misses = -1;
    accesses = 0;
    candidates = 215;
    delta_inherited = 10;
    delta_checked = 30;
    legality_memo_hits = 5;
    mat_memo_hits = 2;
    retried = true;
    degradations = "K706,K711";
    wall_ms = 375;
    doall = -1;
    exec = "";
  }

let test_record_roundtrip () =
  let line = Record.to_line sample_record in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  (match Record.of_line line with
  | Ok r -> Alcotest.(check bool) "round-trip" true (r = sample_record)
  | Error m -> Alcotest.failf "of_line: %s" m);
  List.iter
    (fun status ->
      let r = { sample_record with Record.status } in
      match Record.of_line (Record.to_line r) with
      | Ok r' -> Alcotest.(check bool) "status round-trip" true (r' = r)
      | Error m -> Alcotest.failf "status %s: %s" (Record.status_to_string status) m)
    [ Record.Clean; Record.Degraded; Record.Quarantined; Record.Failed ]

let test_record_rejects_garbage () =
  List.iter
    (fun line ->
      match Record.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ ""; "just one field"; Record.to_line sample_record ^ "\textra" ]

let test_delta_inherit_rate () =
  Alcotest.(check (float 1e-9)) "10/40" 0.25 (Record.delta_inherit_rate sample_record);
  Alcotest.(check (float 1e-9)) "nothing checked -> 0" 0.
    (Record.delta_inherit_rate { sample_record with Record.delta_inherited = 0; delta_checked = 0 })

(* ---- runner checkpointing on a real kernel ---- *)

let tiny_kernel = "params N\ndo I = 1..N\n  S1: A(I) = A(I) + 1\nenddo\n"

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_runner_setup f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      write (Filename.concat dir "k.loop") tiny_kernel;
      let mpath = Filename.concat dir "m.manifest" in
      write mpath "kernel k k.loop size=8 depth=1 finalists=1\n";
      let manifest = Result.get_ok (Manifest.load mpath) in
      let state = Filename.concat dir "state" in
      let config =
        { Runner.manifest; state_dir = Some state; timeout_ms = 0; timings = false; jobs = 1 }
      in
      f config state)

let run_ok config =
  match Runner.run ~out:null_out config with
  | Ok r -> r
  | Error ds -> Alcotest.failf "runner refused: %s" (Diag.list_to_string ds)

let test_runner_resume_skips_completed () =
  with_runner_setup (fun config state ->
      let first = run_ok config in
      Alcotest.(check int) "one record" 1 (List.length first.Runner.records);
      Alcotest.(check int) "cold start" 0 first.Runner.resumed;
      Alcotest.(check bool) "checkpoint written" true
        (Sys.file_exists (Runner.checkpoint_path state));
      let second = run_ok config in
      Alcotest.(check int) "resumed from checkpoint" 1 second.Runner.resumed;
      Alcotest.(check bool) "records identical" true
        (List.map Record.to_line first.Runner.records
        = List.map Record.to_line second.Runner.records))

let test_runner_refuses_config_mismatch () =
  with_runner_setup (fun config _state ->
      ignore (run_ok config);
      match Runner.run ~out:null_out { config with Runner.timeout_ms = 5_000 } with
      | Error ds ->
          Alcotest.(check (list string)) "typed refusal" [ "K703" ]
            (List.map (fun d -> d.Diag.code) ds)
      | Ok _ -> Alcotest.fail "checkpoint from another config accepted")

let test_runner_cold_starts_on_corrupt_checkpoint () =
  with_runner_setup (fun config state ->
      ignore (run_ok config);
      write (Runner.checkpoint_path state) "not a snapshot";
      let r = run_ok config in
      Alcotest.(check int) "nothing restored" 0 r.Runner.resumed;
      Alcotest.(check (list string)) "typed cold-start warning" [ "K704" ]
        (List.map (fun d -> d.Diag.code) r.Runner.diags);
      Alcotest.(check int) "kernel rerun" 1 (List.length r.Runner.records))

let test_runner_checkpoint_is_a_snapshot () =
  with_runner_setup (fun config state ->
      ignore (run_ok config);
      match
        Snapshot.load
          ~path:(Runner.checkpoint_path state)
          ~kind:Runner.checkpoint_kind ~version:Runner.checkpoint_version
      with
      | Ok (Some payload) ->
          Alcotest.(check bool) "payload has a config header" true
            (String.length payload >= 7 && String.sub payload 0 7 = "config ")
      | Ok None -> Alcotest.fail "checkpoint missing"
      | Error m -> Alcotest.failf "checkpoint unreadable: %s" m)

(* ---- one declaration per numeric option ---- *)

(* Each front end is driven with one value of an option through its real
   reader — the CLI through the inltool binary, serve through
   [Server.handle], a manifest through [Manifest.load] — and answers
   with the codes of the errors it raised ([] when it took the value; a
   usage error or crash of the binary counts as its exit status).  A
   front end's probes list, per option, the command lines (or requests)
   that carry it. *)

let errors_of_stderr text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         if String.length l >= 10 && String.sub l 0 6 = "error[" then Some (String.sub l 6 4)
         else None)

let cli_probes dir (o : Opt.t) =
  let k = Filename.concat dir "k.loop" in
  let with_flag base n = base @ [ Printf.sprintf "--%s=%d" (Opt.flag o) n ] in
  let bases =
    [
      ([ Opt.beam; Opt.depth; Opt.finalists; Opt.size; Opt.seed ],
        [ "optimize"; k; "-o"; Filename.concat dir "opt" ]);
      ([ Opt.budget; Opt.jobs ], [ "deps"; k ]);
      ([ Opt.cases ], [ "fuzz" ]);
      ([ Opt.timeout_ms ], [ "fuzz"; "--cases"; "1" ]);
      ([ Opt.threads ], [ "run"; k; "-N"; "4"; "--repeat"; "1" ]);
      ([ Opt.repeat ], [ "run"; k; "-N"; "4"; "--threads"; "1" ]);
      ([ Opt.work; Opt.line_elems ], [ "analyze"; "--reuse"; k ]);
      ([ Opt.queue_cap; Opt.max_request_bytes; Opt.checkpoint_every ], [ "serve" ]);
    ]
  in
  let aliases =
    if o == Opt.size then
      [
        (fun n -> [ "run"; k; "-N"; string_of_int n ]);
        (fun n -> [ "apply"; k; "--reverse"; "I"; Printf.sprintf "--verify=%d" n ]);
      ]
    else []
  in
  List.filter_map (fun (opts, base) -> if List.memq o opts then Some (with_flag base) else None)
    bases
  @ aliases
  |> List.map (fun argv n ->
         let err = Filename.concat dir "stderr" in
         let cmd =
           Filename.quote_command "inltool" (argv n) ~stdin:"/dev/null" ~stdout:"/dev/null"
             ~stderr:err
         in
         match Sys.command cmd with
         | (0 | 1 | 2) -> errors_of_stderr (In_channel.with_open_bin err In_channel.input_all)
         | status -> [ Printf.sprintf "exit %d" status ])

let serve_probes (o : Opt.t) =
  let base =
    if List.memq o [ Opt.beam; Opt.depth; Opt.finalists; Opt.size; Opt.seed ] then
      Some (Printf.sprintf {|"method":"optimize","program":"%s"|} (String.escaped tiny_kernel))
    else if List.memq o [ Opt.budget; Opt.timeout_ms ] then
      Some (Printf.sprintf {|"method":"analyze","program":"%s"|} (String.escaped tiny_kernel))
    else if o == Opt.cases then Some {|"method":"fuzz"|}
    else if o == Opt.case_timeout_ms then Some {|"method":"fuzz","cases":1|}
    else None
  in
  Option.to_list base
  |> List.map (fun base n ->
         let server = Result.get_ok (Inl_serve.Server.create Inl_serve.Server.default_config) in
         let line = Printf.sprintf {|{"id":1,%s,"%s":%d}|} base o.Opt.name n in
         let resp = Result.get_ok (Inl_serve.Json.parse (Inl_serve.Server.handle server line)) in
         match Inl_serve.Json.member "error" resp with
         | Some e -> Option.to_list (Inl_serve.Json.string_field "code" e)
         | None -> [])

let manifest_probes (o : Opt.t) =
  [
    (fun n ->
      with_manifest (Printf.sprintf "kernel a x.loop %s=%d\n" o.Opt.name n) (fun _ m ->
          match m with Ok _ -> [] | Error ds -> List.map (fun d -> d.Diag.code) ds));
  ]

let test_every_option_every_front () =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  write (Filename.concat dir "k.loop") tiny_kernel;
  let fronts =
    [
      (Opt.Cli, "D702", cli_probes dir);
      (Opt.Serve, "R703", serve_probes);
      (Opt.Manifest, "K701", manifest_probes);
    ]
  in
  List.iter
    (fun (front, code, probes) ->
      List.iter
        (fun (o : Opt.t) ->
          let runs = probes o in
          if runs = [] then Alcotest.failf "%s: no probe for a front end that takes it" o.Opt.name;
          List.iter
            (fun run ->
              Alcotest.(check (list string)) (o.Opt.name ^ " at its minimum") [] (run o.Opt.min);
              Alcotest.(check (list string))
                (o.Opt.name ^ " below its minimum") [ code ]
                (run (o.Opt.min - 1)))
            runs)
        (Opt.taken_by front))
    fronts

let test_manifest_keys_unchanged () =
  Alcotest.(check (list string)) "manifest keys"
    (List.sort compare
       [
         "size"; "seed"; "beam"; "depth"; "finalists"; "timeout_ms"; "budget"; "run"; "threads";
         "faults";
       ])
    (List.sort compare Manifest.keys)

let () =
  Alcotest.run "corpus"
    [
      ( "manifest",
        [
          Alcotest.test_case "parses entries and overrides" `Quick test_manifest_ok;
          Alcotest.test_case "fingerprint tracks text" `Quick test_manifest_fingerprint_tracks_text;
          Alcotest.test_case "typed rejections" `Quick test_manifest_rejections;
          Alcotest.test_case "key set unchanged" `Quick test_manifest_keys_unchanged;
        ] );
      ( "record",
        [
          Alcotest.test_case "line round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_record_rejects_garbage;
          Alcotest.test_case "delta inherit rate" `Quick test_delta_inherit_rate;
        ] );
      ( "runner",
        [
          Alcotest.test_case "resume skips completed" `Quick test_runner_resume_skips_completed;
          Alcotest.test_case "config mismatch refused" `Quick test_runner_refuses_config_mismatch;
          Alcotest.test_case "corrupt checkpoint cold-starts" `Quick
            test_runner_cold_starts_on_corrupt_checkpoint;
          Alcotest.test_case "checkpoint is a snapshot" `Quick test_runner_checkpoint_is_a_snapshot;
        ] );
      ( "options",
        [
          Alcotest.test_case "minimum accepted, below refused, every front end" `Quick
            test_every_option_every_front;
        ] );
    ]
