(* The shared attempt scope and retry/degradation ladder
   (Inl_diag.Retry).

   One implementation, three call sites (serve, fuzz, corpus) — these
   units pin the ladder's contract independently of any caller:

   - rung arithmetic: the reduced budget/deadline clamps;
   - Completed means exactly one attempt, at full budget;
   - a degradable exception buys exactly one retry at reduced budget;
   - two failures produce a typed two-reason post-mortem, with the
     first-rung reason preserved verbatim;
   - any other exception ends the ladder as a Panicked outcome carrying
     the exception and its backtrace, never retried;
   - the budget and fault spec in force before the call are in force
     after it, whatever the attempts did;
   - a Watchdog.Timeout belonging to an outer deadline is never
     consumed by the ladder. *)

module Retry = Inl_diag.Retry
module Watchdog = Inl_diag.Watchdog
module Budget = Inl_diag.Budget
module Faults = Inl_diag.Faults

(* The work budget the current attempt runs under. *)
let fm () = (Budget.current ()).Budget.fm_work

exception Boom of string

let degradable = function Boom m -> Some m | _ -> None

(* ---- rung arithmetic ---- *)

let test_reduced_budget () =
  let p = Retry.default_policy in
  Alcotest.(check int) "500k -> 50k" 50_000 (Retry.reduced_budget p 500_000);
  Alcotest.(check int) "floored at min_budget" 1_000 (Retry.reduced_budget p 5_000);
  Alcotest.(check int) "tiny stays floored" 1_000 (Retry.reduced_budget p 1)

let test_reduced_timeout () =
  let p = Retry.default_policy in
  Alcotest.(check int) "400 -> 100" 100 (Retry.reduced_timeout p 400);
  Alcotest.(check int) "floored at min_timeout" 50 (Retry.reduced_timeout p 100);
  Alcotest.(check int) "no deadline stays none" 0 (Retry.reduced_timeout p 0);
  Alcotest.(check int) "negative stays none" 0 (Retry.reduced_timeout p (-7));
  let fuzz = { Retry.default_policy with timeout_divisor = 1; min_timeout_ms = 0 } in
  Alcotest.(check int) "fuzz policy keeps the deadline" 400 (Retry.reduced_timeout fuzz 400)

(* ---- the happy path ---- *)

let test_completed_single_attempt () =
  let calls = ref [] in
  let outcome =
    Retry.run ~fm_work:500_000 ~timeout_ms:0 ~degradable (fun () ->
        calls := (fm (), Watchdog.active ()) :: !calls;
        42)
  in
  (match outcome with
  | Retry.Completed v -> Alcotest.(check int) "value" 42 v
  | _ -> Alcotest.fail "expected Completed");
  Alcotest.(check (list (pair int bool)))
    "one attempt, full budget, no deadline" [ (500_000, false) ] !calls

(* ---- one degradable failure -> one reduced-budget retry ---- *)

let test_recovered_from_degradation () =
  let calls = ref [] in
  let outcome =
    Retry.run ~fm_work:500_000 ~timeout_ms:0 ~degradable (fun () ->
        calls := fm () :: !calls;
        if List.length !calls = 1 then raise (Boom "budget exhausted (cap)") else 7)
  in
  (match outcome with
  | Retry.Recovered { value; first = Retry.Degraded m; fm_work } ->
      Alcotest.(check int) "value" 7 value;
      Alcotest.(check string) "first reason preserved" "budget exhausted (cap)" m;
      Alcotest.(check int) "retry budget" 50_000 fm_work
  | _ -> Alcotest.fail "expected Recovered (Degraded)");
  Alcotest.(check (list int)) "budgets per rung" [ 50_000; 500_000 ] !calls

let test_exhausted_keeps_both_reasons () =
  let n = ref 0 in
  let outcome =
    Retry.run ~fm_work:20_000 ~timeout_ms:0 ~degradable (fun () ->
        incr n;
        raise (Boom (Printf.sprintf "blowup %d" !n)))
  in
  match outcome with
  | Retry.Exhausted { first = Retry.Degraded a; second = Retry.Degraded b; fm_work } ->
      Alcotest.(check string) "first" "blowup 1" a;
      Alcotest.(check string) "second" "blowup 2" b;
      Alcotest.(check int) "second rung budget" 2_000 fm_work
  | _ -> Alcotest.fail "expected Exhausted (Degraded, Degraded)"

let test_non_degradable_propagates () =
  let n = ref 0 in
  (match
     Retry.run ~fm_work:1_000 ~timeout_ms:0 ~degradable (fun () ->
         incr n;
         failwith "worker panic")
   with
  | Retry.Panicked { exn = Failure m; _ } -> Alcotest.(check string) "message" "worker panic" m
  | _ -> Alcotest.fail "expected Panicked (Failure)");
  Alcotest.(check int) "no retry for a panic" 1 !n

(* ---- the attempt scope ---- *)

let test_panic_restores_scope () =
  (* A thunk that installs its own budget and faults and then raises:
     the panic outcome carries the exception and the backtrace of the
     raise, and the budget and faults in force before the call are back
     in force after it. *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let before_budget = Budget.with_fm_work Budget.default 123_456 in
  let before_faults = Result.get_ok (Faults.parse "cap=77") in
  Budget.install before_budget;
  Faults.install before_faults;
  let seen = ref [] in
  let outcome =
    Retry.run ~fm_work:9_999
      ~faults:(Result.get_ok (Faults.parse "every=2"))
      ~timeout_ms:0 ~degradable
      (fun () ->
        seen := (fm (), Faults.to_string (Faults.current ())) :: !seen;
        Budget.install Budget.default;
        Faults.install Faults.none;
        failwith "deep panic")
  in
  let after_budget = Budget.current () and after_faults = Faults.current () in
  Budget.install Budget.default;
  Faults.install Faults.none;
  Printexc.record_backtrace recording;
  (match outcome with
  | Retry.Panicked { exn = Failure m; backtrace } ->
      Alcotest.(check string) "exception" "deep panic" m;
      Alcotest.(check bool) "backtrace recorded" true
        (Printexc.raw_backtrace_length backtrace > 0)
  | _ -> Alcotest.fail "expected Panicked (Failure)");
  Alcotest.(check (list (pair int string)))
    "the attempt ran under its own scope" [ (9_999, "every=2") ] !seen;
  Alcotest.(check int) "budget restored" 123_456 after_budget.Budget.fm_work;
  Alcotest.(check string) "faults restored" "cap=77" (Faults.to_string after_faults)

let test_scope_without_faults () =
  (* without [~faults] the caller's spec is left alone — not reinstalled
     per attempt, not replaced afterwards — while the budget is still
     scoped *)
  let spec = Result.get_ok (Faults.parse "cap=5") in
  Faults.install spec;
  let base = Budget.current () in
  let inside = ref "" in
  (match
     Retry.run ~fm_work:4_242 ~timeout_ms:0 ~degradable (fun () ->
         inside := Faults.to_string (Faults.current ());
         fm ())
   with
  | Retry.Completed w -> Alcotest.(check int) "attempt budget" 4_242 w
  | _ -> Alcotest.fail "expected Completed");
  let after = Faults.current () in
  Faults.install Faults.none;
  Alcotest.(check string) "spec seen inside" "cap=5" !inside;
  Alcotest.(check string) "spec kept" "cap=5" (Faults.to_string after);
  Alcotest.(check int) "budget restored" base.Budget.fm_work (fm ())

let test_interrupt_reraised () =
  (* SIGINT belongs to the caller (which flushes its checkpoint): the
     ladder neither retries it nor turns it into a panic, and the scope
     is restored on the way out *)
  let base = fm () in
  let n = ref 0 in
  (match
     Retry.run ~fm_work:3_333 ~faults:Faults.none ~timeout_ms:0 ~degradable (fun () ->
         incr n;
         raise Inl_diag.Sigint.Interrupted)
   with
  | _ -> Alcotest.fail "interrupt swallowed"
  | exception Inl_diag.Sigint.Interrupted -> ());
  Alcotest.(check int) "one attempt" 1 !n;
  Alcotest.(check int) "budget restored" base (fm ())

(* ---- deadlines ---- *)

let test_deadline_then_recovered () =
  let calls = ref [] in
  let outcome =
    Retry.run ~fm_work:500_000 ~timeout_ms:200 ~degradable (fun () ->
        calls := fm () :: !calls;
        if List.length !calls = 1 then begin
          Watchdog.hang ();
          assert false
        end
        else 9)
  in
  (match outcome with
  | Retry.Recovered { value; first = Retry.Deadline { timeout_ms; elapsed }; fm_work } ->
      Alcotest.(check int) "value" 9 value;
      Alcotest.(check int) "first-rung deadline" 200 timeout_ms;
      Alcotest.(check bool) "elapsed at least the deadline" true (elapsed >= 0.2);
      Alcotest.(check int) "retry budget" 50_000 fm_work
  | _ -> Alcotest.fail "expected Recovered (Deadline)");
  Alcotest.(check (list int)) "budgets per rung" [ 50_000; 500_000 ] !calls

let test_deadline_exhausted () =
  match
    Retry.run ~fm_work:500_000 ~timeout_ms:100 ~degradable (fun () -> Watchdog.hang ())
  with
  | Retry.Exhausted
      { first = Retry.Deadline { timeout_ms = t1; _ };
        second = Retry.Deadline { timeout_ms = t2; _ };
        fm_work;
      } ->
      Alcotest.(check int) "first rung" 100 t1;
      Alcotest.(check int) "second rung floored" 50 t2;
      Alcotest.(check int) "second rung budget" 50_000 fm_work
  | _ -> Alcotest.fail "expected Exhausted (Deadline, Deadline)"

let test_outer_deadline_not_consumed () =
  (* The ladder itself runs without a deadline; the Timeout that fires
     belongs to the caller's watchdog and must reach it, not be turned
     into a ladder rung. *)
  let attempts = ref 0 in
  match
    Watchdog.with_timeout ~ms:100 (fun () ->
        Retry.run ~fm_work:1_000 ~timeout_ms:0 ~degradable (fun () ->
            incr attempts;
            Watchdog.hang ()))
  with
  | Error _ -> Alcotest.(check int) "ladder did not retry the outer timeout" 1 !attempts
  | Ok _ -> Alcotest.fail "outer deadline never fired"

let () =
  Alcotest.run "retry"
    [
      ( "ladder",
        [
          Alcotest.test_case "reduced budget clamps" `Quick test_reduced_budget;
          Alcotest.test_case "reduced timeout clamps" `Quick test_reduced_timeout;
          Alcotest.test_case "completed = one attempt" `Quick test_completed_single_attempt;
          Alcotest.test_case "recovered from degradation" `Quick test_recovered_from_degradation;
          Alcotest.test_case "exhausted keeps both reasons" `Quick test_exhausted_keeps_both_reasons;
          Alcotest.test_case "panic propagates" `Quick test_non_degradable_propagates;
          Alcotest.test_case "panic restores the scope" `Quick test_panic_restores_scope;
          Alcotest.test_case "scope without faults" `Quick test_scope_without_faults;
          Alcotest.test_case "interrupt re-raised" `Quick test_interrupt_reraised;
          Alcotest.test_case "deadline then recovered" `Quick test_deadline_then_recovered;
          Alcotest.test_case "deadline exhausted" `Quick test_deadline_exhausted;
          Alcotest.test_case "outer deadline not consumed" `Quick test_outer_deadline_not_consumed;
        ] );
    ]
