(* Tests for the serve daemon's building blocks, wire-level behavior and
   failure containment — everything that must hold without actually
   forking a process (the cram tests and `make serve-smoke` cover the
   process level).

   Three layers:
   - Json: the hand-rolled codec parses untrusted bytes without raising
     and prints deterministically (round-trip property included).
   - Snapshot: crash-safe save/load rejects every corruption a torn or
     bit-rotted file can present, and a cache snapshot round-trips
     through Omega.
   - Server.handle: one request line in, one response line out — typed
     rejections, per-request isolation of budget/fault scope, the
     degradation ladder (R706 on a hang under a deadline), and panic
     recovery are all observable through the pure [handle] entry. *)

module Json = Inl_serve.Json
module Snapshot = Inl_serve.Snapshot
module Server = Inl_serve.Server
module Omega = Inl_presburger.Omega
module Faults = Inl_diag.Faults
module Budget = Inl_diag.Budget

(* ---- json ---- *)

let test_json_values () =
  let roundtrip s = Result.map Json.to_string (Json.parse s) in
  List.iter
    (fun (input, want) ->
      Alcotest.(check (result string string)) input (Ok want) (roundtrip input))
    [
      ("null", "null");
      ("true", "true");
      ("  -42 ", "-42");
      ("3.5", "3.5");
      ({|"a\nbA"|}, {|"a\nbA"|});
      ({|{"a":[1,2,{}],"b":""}|}, {|{"a":[1,2,{}],"b":""}|});
      ("[]", "[]");
      ({|"😀"|}, "\"\xf0\x9f\x98\x80\"");
      (* lone surrogate -> U+FFFD, not a crash *)
      ({|"\ud800x"|}, "\"\xef\xbf\xbdx\"");
    ]

let test_json_malformed () =
  List.iter
    (fun input ->
      match Json.parse input with
      | Ok v -> Alcotest.failf "parsed %S as %s" input (Json.to_string v)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,";
      {|{"a" 1}|};
      "nul";
      "1 2";
      {|"unterminated|};
      "\"raw\tcontrol\"" |> String.map (fun c -> if c = 't' then '\t' else c);
      (* nesting bomb: must be rejected, not stack-overflowed *)
      String.concat "" (List.init 200 (fun _ -> "[")) ^ "1"
      ^ String.concat "" (List.init 200 (fun _ -> "]"));
    ]

let test_json_accessors () =
  let v = Result.get_ok (Json.parse {|{"s":"x","n":7,"b":true}|}) in
  Alcotest.(check (option string)) "string" (Some "x") (Json.string_field "s" v);
  Alcotest.(check (option int)) "int" (Some 7) (Json.int_field "n" v);
  Alcotest.(check (option bool)) "bool" (Some true) (Json.bool_field "b" v);
  Alcotest.(check (option string)) "missing" None (Json.string_field "zzz" v);
  Alcotest.(check (option int)) "wrong type" None (Json.int_field "s" v)

(* ---- snapshot ---- *)

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) ("inl-test-" ^ name)

let test_snapshot_roundtrip () =
  let path = tmpfile "snap-rt" in
  let payload = "some\x00binary\xffpayload\n with newlines \n" in
  Alcotest.(check (result unit string))
    "save" (Ok ())
    (Snapshot.save ~path ~kind:"demo" ~version:3 payload);
  (match Snapshot.load ~path ~kind:"demo" ~version:3 with
  | Ok (Some got) -> Alcotest.(check string) "payload" payload got
  | other ->
      Alcotest.failf "load: %s"
        (match other with
        | Error e -> e
        | Ok None -> "missing"
        | Ok (Some _) -> assert false));
  Sys.remove path

let test_snapshot_rejects_corruption () =
  let path = tmpfile "snap-bad" in
  let expect_error what =
    match Snapshot.load ~path ~kind:"demo" ~version:1 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt snapshot accepted" what
  in
  Result.get_ok (Snapshot.save ~path ~kind:"demo" ~version:1 "payload");
  (* flip a payload byte: checksum must catch it *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let flipped = Bytes.of_string raw in
  Bytes.set flipped (Bytes.length flipped - 1) 'X';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
  expect_error "bit flip";
  (* truncation *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw - 3)));
  expect_error "truncation";
  (* wrong kind and wrong version are refusals, not payloads *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc raw);
  (match Snapshot.load ~path ~kind:"other" ~version:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong kind accepted");
  (match Snapshot.load ~path ~kind:"demo" ~version:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted");
  (* garbage file *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a snapshot");
  expect_error "garbage";
  Sys.remove path;
  (* absent file is a legitimate cold start, not an error *)
  Alcotest.(check bool) "absent -> Ok None" true
    (Snapshot.load ~path ~kind:"demo" ~version:1 = Ok None)

(* The corruption shapes a torn write or a dying disk actually leaves
   behind, each pinned to a distinct refusal: the corpus runner and the
   serve daemon both treat any of these as a typed cold start, never as
   a payload. *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_snapshot_corruption_edge_cases () =
  let path = tmpfile "snap-edge" in
  let expect_substring what needle =
    match Snapshot.load ~path ~kind:"demo" ~version:1 with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error m -> if not (contains ~needle m) then Alcotest.failf "%s: error %S lacks %S" what m needle
  in
  let put s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  (* zero-length file: a crash between open and first write *)
  put "";
  expect_substring "zero-length" "no header line";
  (* header line only, payload never reached the disk *)
  Result.get_ok (Snapshot.save ~path ~kind:"demo" ~version:1 "payload");
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index raw '\n' in
  put (String.sub raw 0 (nl + 1));
  expect_substring "header only" "payload truncated (0 of 7 bytes)";
  (* truncation mid-header: not even the container line survived *)
  put (String.sub raw 0 (nl - 2));
  expect_substring "mid-header cut" "no header line";
  (* checksum mismatch with the length intact *)
  put (String.concat "" [ String.sub raw 0 (nl + 1); "payloaX" ]);
  expect_substring "checksum" "checksum mismatch";
  (* version skew in an otherwise pristine file *)
  put raw;
  (match Snapshot.load ~path ~kind:"demo" ~version:9 with
  | Error m ->
      Alcotest.(check bool) "version skew names both versions" true
        (contains ~needle:"format version 1, this build reads 9" m)
  | Ok _ -> Alcotest.fail "version skew accepted");
  Sys.remove path

let test_cache_snapshot_roundtrip () =
  Omega.clear_cache ();
  let src = "params N\ndo I = 1..N\n  S1: A(I) = A(I-1) + A(I)\nenddo\n" in
  ignore (Inl.analyze_source_result src);
  let entries_before = (Omega.cache_stats ()).Inl_presburger.Cache.entries in
  Alcotest.(check bool) "analysis populated the cache" true (entries_before > 0);
  let dump = Omega.cache_snapshot () in
  Omega.clear_cache ();
  (match Omega.cache_restore dump with
  | Ok n -> Alcotest.(check int) "all entries restored" entries_before n
  | Error e -> Alcotest.fail e);
  (* restored entries actually hit *)
  ignore (Inl.analyze_source_result src);
  let cs = Omega.cache_stats () in
  Alcotest.(check bool) "warm after restore" true (cs.Inl_presburger.Cache.hits > 0);
  Alcotest.(check bool) "no misses after restore" true (cs.Inl_presburger.Cache.misses = 0);
  (* corrupt dumps are an Error, not an exception *)
  match Omega.cache_restore "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage dump accepted"

(* ---- server.handle ---- *)

let make_server () = Result.get_ok (Server.create Server.default_config)

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line

let error_code resp =
  Option.bind (Json.member "error" resp) (Json.string_field "code")

let good_src = "params N\ndo I = 1..N\n  S1: A(I) = A(I-1) + A(I)\nenddo\n"

let test_handle_rejections () =
  let t = make_server () in
  let code line = error_code (parse_response (Server.handle t line)) in
  Alcotest.(check (option string)) "malformed JSON" (Some "R701") (code "{nope");
  Alcotest.(check (option string)) "unknown method" (Some "R702")
    (code {|{"id":1,"method":"frobnicate"}|});
  Alcotest.(check (option string)) "missing method" (Some "R703") (code {|{"id":1}|});
  Alcotest.(check (option string)) "missing program" (Some "R703")
    (code {|{"id":1,"method":"analyze"}|});
  Alcotest.(check (option string)) "bad fault spec" (Some "R703")
    (code {|{"id":1,"method":"analyze","program":"x","faults":"every=banana"}|});
  let t2 =
    Result.get_ok (Server.create { Server.default_config with max_request_bytes = 64 })
  in
  let long = {|{"id":1,"method":"analyze","program":"|} ^ String.make 100 'x' ^ {|"}|} in
  Alcotest.(check (option string)) "oversized" (Some "R705")
    (error_code (parse_response (Server.handle t2 long)));
  (* after all that abuse, the server still answers *)
  let pong = parse_response (Server.handle t {|{"id":9,"method":"ping"}|}) in
  Alcotest.(check (option bool)) "still serving" (Some true) (Json.bool_field "ok" pong)

let test_handle_isolation () =
  (* a request-scoped fault spec and budget must not leak into the
     process defaults or the next request *)
  let t = make_server () in
  Faults.install Faults.none;
  let base = Budget.current () in
  let line =
    {|{"id":1,"method":"analyze","program":|}
    ^ Json.to_string (Json.String good_src)
    ^ {|,"faults":"every=1","budget":77777}|}
  in
  let resp = parse_response (Server.handle t line) in
  Alcotest.(check (option bool)) "degraded under injected faults" (Some true)
    (Json.bool_field "degraded" resp);
  Alcotest.(check bool) "fault scope restored" false (Faults.active ());
  Alcotest.(check int) "budget restored" base.Budget.fm_work
    (Budget.current ()).Budget.fm_work;
  (* the very same program, unfaulted, now analyzes exactly *)
  let clean =
    {|{"id":2,"method":"analyze","program":|} ^ Json.to_string (Json.String good_src) ^ "}"
  in
  let resp2 = parse_response (Server.handle t clean) in
  Alcotest.(check (option bool)) "next request unaffected" (Some false)
    (Json.bool_field "degraded" resp2)

let test_handle_deadline_ladder () =
  (* an injected hang under a request deadline must come back as a typed
     R706 after the reduced-budget retry — and the daemon must then
     answer the next request normally *)
  let t = make_server () in
  let line =
    {|{"id":1,"method":"analyze","program":|}
    ^ Json.to_string (Json.String good_src)
    ^ {|,"faults":"hang=0","timeout_ms":200}|}
  in
  let resp = parse_response (Server.handle t line) in
  Alcotest.(check (option string)) "typed timeout" (Some "R706") (error_code resp);
  Alcotest.(check (option bool)) "not ok" (Some false) (Json.bool_field "ok" resp);
  let resp2 =
    parse_response
      (Server.handle t
         ({|{"id":2,"method":"analyze","program":|}
         ^ Json.to_string (Json.String good_src)
         ^ "}"))
  in
  Alcotest.(check (option bool)) "daemon alive and exact" (Some true)
    (Json.bool_field "ok" resp2);
  Alcotest.(check int) "session counts the failure" 1 (Server.exit_code t)

let test_handle_shutdown_and_stats () =
  let t = make_server () in
  ignore (Server.handle t {|{"id":1,"method":"ping"}|});
  let stats = parse_response (Server.handle t {|{"id":2,"method":"stats"}|}) in
  let served =
    Option.bind (Json.member "result" stats) (Json.int_field "served")
  in
  Alcotest.(check (option int)) "served counter" (Some 1) served;
  let bye = parse_response (Server.handle t {|{"id":3,"method":"shutdown"}|}) in
  Alcotest.(check (option bool)) "shutdown acknowledged" (Some true)
    (Option.bind (Json.member "result" bye) (Json.bool_field "draining"));
  Alcotest.(check int) "clean session" 0 (Server.exit_code t)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "values round-trip" `Quick test_json_values;
          Alcotest.test_case "malformed input is an Error" `Quick test_json_malformed;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_rejects_corruption;
          Alcotest.test_case "corruption edge cases" `Quick test_snapshot_corruption_edge_cases;
          Alcotest.test_case "omega cache round-trip" `Quick test_cache_snapshot_roundtrip;
        ] );
      ( "handle",
        [
          Alcotest.test_case "typed rejections" `Quick test_handle_rejections;
          Alcotest.test_case "per-request isolation" `Quick test_handle_isolation;
          Alcotest.test_case "deadline ladder ends in R706" `Quick test_handle_deadline_ladder;
          Alcotest.test_case "stats and shutdown" `Quick test_handle_shutdown_and_stats;
        ] );
    ]
