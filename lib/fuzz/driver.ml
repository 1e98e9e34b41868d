module Watchdog = Inl_diag.Watchdog
module Retry = Inl_diag.Retry
module Omega = Inl_presburger.Omega

type config = {
  seed : int;
  cases : int;
  timeout_ms : int;
  corpus : string option;
  shrink : bool;
}

type report = {
  seed : int;
  cases : int;
  completed : int;
  ok : int;
  skipped : int;
  crash : int;
  divergence : int;
  verdict_mismatch : int;
  timeout : int;
  interrupted : bool;
}

let findings r = r.crash + r.divergence + r.verdict_mismatch + r.timeout

let summary_line r =
  Printf.sprintf
    "fuzz: seed=%d cases=%d completed=%d ok=%d skipped=%d findings=%d (crash=%d divergence=%d \
     verdict-mismatch=%d timeout=%d)"
    r.seed r.cases r.completed r.ok r.skipped (findings r) r.crash r.divergence
    r.verdict_mismatch r.timeout

(* Generation runs dependence-free code plus the budgeted lint, but a
   hung or crashed generator must still become a case verdict, not a
   harness abort.  The watchdog timeout always propagates (the caller
   owns the deadline). *)
let gen_guarded ~seed ~index stash =
  match Gen.case ~seed ~index with
  | pair ->
      stash := Some pair;
      `Gen pair
  | exception (Watchdog.Timeout _ as e) -> raise e
  | exception Omega.Blowup msg ->
      `Fail
        (Oracle.Finding
           { signature = Oracle.Crash; detail = "generator leaked a solver Blowup: " ^ msg })
  | exception e ->
      `Fail
        (Oracle.Finding
           { signature = Oracle.Crash; detail = "generator raised: " ^ Printexc.to_string e })

(* The per-case rungs of the shared ladder (Inl_diag.Retry): the serve
   policy, except the retry keeps the full deadline — the point of the
   starved rung is that a grinding solver blows up fast, not that it
   gets less time — and nothing is degradable (the oracle already folds
   Blowup into case verdicts; anything else escaping is a harness bug
   that should abort). *)
let retry_policy = { Retry.default_policy with timeout_divisor = 1; min_timeout_ms = 0 }

let run_case (cfg : config) ~index stash =
  (* the stash survives a retry: both attempts derive the identical case
     from (seed, index), so a retry that dies before regenerating it can
     still quarantine attempt one's program *)
  stash := None;
  let attempt () =
    match gen_guarded ~seed:cfg.seed ~index stash with
    | `Fail outcome -> outcome
    | `Gen (prog, tf) -> Oracle.run_case prog tf
  in
  match
    Retry.run ~policy:retry_policy ~timeout_ms:cfg.timeout_ms ~degradable:(fun _ -> None) attempt
  with
  | Retry.Completed outcome | Retry.Recovered { value = outcome; _ } -> outcome
  | Retry.Panicked { exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace
  | Retry.Exhausted { fm_work = reduced; _ } ->
      Oracle.Finding
        {
          signature = Oracle.Timeout;
          detail =
            Printf.sprintf
              "case exceeded the %d ms watchdog twice (reduced-budget retry at fm_work=%d)"
              cfg.timeout_ms reduced;
        }

let shrink_finding (cfg : config) ~signature prog tf =
  if not cfg.shrink then (prog, tf)
  else
    let oracle p t = Oracle.run_case ~timeout_ms:cfg.timeout_ms p t in
    (* every probe of a timeout finding pays the full timeout *)
    let max_attempts = match signature with Oracle.Timeout -> 6 | _ -> 150 in
    let p, t, _ = Shrink.shrink ~oracle ~signature ~max_attempts prog tf in
    (p, t)

let start_index (cfg : config) =
  match cfg.corpus with
  | None -> Ok 0
  | Some dir -> (
      match Corpus.ensure_dir dir with
      | Error _ as e -> e
      | Ok () -> (
          match Corpus.read_cursor ~dir with
          | Error _ as e -> e
          | Ok None -> Ok 0
          | Ok (Some c) ->
              if c.Corpus.seed <> cfg.seed then
                Error
                  (Printf.sprintf
                     "corpus %s belongs to a campaign seeded with %d, not %d (use a fresh \
                      directory or the original seed)"
                     dir c.Corpus.seed cfg.seed)
              else Ok (min c.Corpus.cases_done cfg.cases)))

let run ?(out = Format.std_formatter) ?(stop = fun () -> false) (cfg : config) =
  match start_index cfg with
  | Error _ as e -> e
  | Ok start ->
      if start > 0 then
        Format.fprintf out "fuzz: resuming at case %d of %d@." (start + 1) cfg.cases;
      let totals =
        ref
          {
            seed = cfg.seed;
            cases = cfg.cases;
            completed = 0;
            ok = 0;
            skipped = 0;
            crash = 0;
            divergence = 0;
            verdict_mismatch = 0;
            timeout = 0;
            interrupted = false;
          }
      in
      let stash = ref None in
      let next = ref start in
      while !next < cfg.cases && not !totals.interrupted do
        (* the stop hook (SIGINT) is consulted only between cases, so an
           interrupt never tears a cursor or quarantine write *)
        if stop () then totals := { !totals with interrupted = true }
        else begin
        let index = !next in
        incr next;
        let outcome = run_case cfg ~index stash in
        (match outcome with
        | Oracle.Pass _ -> totals := { !totals with ok = !totals.ok + 1 }
        | Oracle.Skip _ -> totals := { !totals with skipped = !totals.skipped + 1 }
        | Oracle.Finding { signature; detail } ->
            (totals :=
               match signature with
               | Oracle.Crash -> { !totals with crash = !totals.crash + 1 }
               | Oracle.Divergence -> { !totals with divergence = !totals.divergence + 1 }
               | Oracle.Verdict_mismatch ->
                   { !totals with verdict_mismatch = !totals.verdict_mismatch + 1 }
               | Oracle.Timeout -> { !totals with timeout = !totals.timeout + 1 });
            let where =
              match (!stash, cfg.corpus) with
              | Some (orig_prog, orig_tf), Some dir ->
                  let prog, tf = shrink_finding cfg ~signature orig_prog orig_tf in
                  let base =
                    Corpus.write_finding ~dir ~index ~signature ~detail ~prog ~tf ~orig_prog
                      ~orig_tf
                  in
                  " -> " ^ Filename.concat dir base
              | Some _, None -> " (no corpus directory; not quarantined)"
              | None, _ -> " (case hung or crashed before a program existed; nothing to quarantine)"
            in
            Format.fprintf out "fuzz: case %d: finding %s%s [%s]@." index
              (Oracle.signature_to_string signature)
              where detail);
        totals := { !totals with completed = !totals.completed + 1 };
        (match cfg.corpus with
        | Some dir -> Corpus.write_cursor ~dir { Corpus.seed = cfg.seed; cases_done = index + 1 }
        | None -> ())
        end
      done;
      if !totals.interrupted then
        Format.fprintf out "fuzz: interrupted after case %d of %d; cursor flushed, rerun to resume@."
          (start + !totals.completed) cfg.cases;
      let line = summary_line !totals in
      Format.fprintf out "%s@." line;
      (match cfg.corpus with Some dir -> Corpus.write_summary ~dir line | None -> ());
      Ok !totals

let strip_suffix base =
  match Filename.chop_suffix_opt ~suffix:".inl" base with
  | Some b -> b
  | None -> ( match Filename.chop_suffix_opt ~suffix:".tf" base with Some b -> b | None -> base)

let replay ?(timeout_ms = 0) ?(out = Format.std_formatter) base =
  let base = strip_suffix base in
  match Corpus.load_case ~inl:(base ^ ".inl") ~tf:(base ^ ".tf") with
  | Error _ as e -> e
  | Ok (prog, tf) ->
      let outcome = Oracle.run_case ~timeout_ms prog tf in
      Format.fprintf out "replay %s: %s@." (Filename.basename base)
        (Oracle.outcome_to_string outcome);
      Ok (match outcome with Oracle.Finding _ -> true | Oracle.Pass _ | Oracle.Skip _ -> false)
