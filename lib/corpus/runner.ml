module Diag = Inl_diag.Diag
module Budget = Inl_diag.Budget
module Faults = Inl_diag.Faults
module Opt = Inl_diag.Opt
module Stats = Inl_diag.Stats
module Retry = Inl_diag.Retry
module Sigint = Inl_diag.Sigint
module Omega = Inl_presburger.Omega
module Pool = Inl_parallel.Pool
module Search = Inl_search.Search
module Snapshot = Inl_serve.Snapshot
module Fcorpus = Inl_fuzz.Corpus
module Oracle = Inl_fuzz.Oracle
module Tf = Inl_fuzz.Tf
module Exec = Inl_exec.Exec

type config = {
  manifest : Manifest.t;
  state_dir : string option;
  timeout_ms : int;
  timings : bool;
  jobs : int;
}

type report = {
  records : Record.t list;
  resumed : int;
  interrupted : bool;
  diags : Diag.t list;
}

let checkpoint_kind = "corpus-checkpoint"

(* v2: records carry the winner's DOALL count and execution label *)
let checkpoint_version = 2
let checkpoint_path state_dir = Filename.concat state_dir "checkpoint"

(* ---- checkpoint ---- *)

(* Payload: one config header line binding the checkpoint to this
   manifest and runner configuration, then one Record line per
   completed kernel.  The whole container is checksummed by Snapshot
   and replaced atomically by Atomicio, so the file on disk is always a
   complete, valid prefix of the run. *)

let header cfg =
  Printf.sprintf "config jobs=%d timeout_ms=%d timings=%d manifest=%s" cfg.jobs cfg.timeout_ms
    (if cfg.timings then 1 else 0)
    cfg.manifest.Manifest.fingerprint

let save_checkpoint cfg ~records =
  match cfg.state_dir with
  | None -> []
  | Some dir -> (
      let payload =
        String.concat "\n" (header cfg :: List.map Record.to_line records) ^ "\n"
      in
      match
        Snapshot.save ~path:(checkpoint_path dir) ~kind:checkpoint_kind
          ~version:checkpoint_version payload
      with
      | Ok () -> []
      | Error m ->
          [
            Diag.warningf ~code:"K705" ~phase:Diag.Corpus
              "cannot write checkpoint: %s (the run continues unpersisted)" m;
          ])

(* Restores completed records; distinguishes a *refusal* (valid
   checkpoint for a different manifest/config — K703, like the fuzz
   driver's seed-mismatch D706) from an *unusable* file (K704 warning +
   cold start, like serve's R709). *)
let load_checkpoint cfg =
  match cfg.state_dir with
  | None -> Ok ([], [])
  | Some dir -> (
      let path = checkpoint_path dir in
      let cold m =
        Ok
          ( [],
            [
              Diag.warningf ~code:"K704" ~phase:Diag.Corpus
                "checkpoint unusable (%s); starting cold" m;
            ] )
      in
      match Snapshot.load ~path ~kind:checkpoint_kind ~version:checkpoint_version with
      | Ok None -> Ok ([], [])
      | Error m -> cold m
      | Ok (Some payload) -> (
          match String.split_on_char '\n' payload with
          | hdr :: rest ->
              if hdr <> header cfg then
                Error
                  [
                    Diag.errorf ~code:"K703" ~phase:Diag.Corpus
                      "checkpoint %s was recorded under a different manifest or configuration \
                       (%s, this run: %s); delete it to start over, or rerun with the original \
                       settings"
                      path hdr (header cfg);
                  ]
              else
                let rec records acc = function
                  | [] | [ "" ] -> Ok (List.rev acc)
                  | line :: rest -> (
                      match Record.of_line line with
                      | Ok r -> records (r :: acc) rest
                      | Error m -> Error m)
                in
                (match records [] rest with Ok rs -> Ok (rs, []) | Error m -> cold m)
          | [] -> cold "empty payload"))

(* ---- per-kernel execution ---- *)

(* Every attempt starts from cold process-wide caches: the record then
   measures the kernel itself (not batch history), and a resumed run
   reproduces the remaining records byte-identically.  This also makes
   the retry rung independent of wherever the first attempt died. *)
let clear_process_state () = Inl_diag.Memo.clear_all ()

type attempt_result =
  | Ran of Search.outcome
  | Unreadable of string
  | Refused of Diag.t list  (** parse/layout failure *)

let counter counters name = match List.assoc_opt name counters with Some n -> n | None -> 0

let sorted_codes codes = String.concat "," (List.sort_uniq compare codes)

(* Quarantine a kernel in the fuzz-corpus format: the source program
   with the identity recipe, replayable by `inltool fuzz --replay` (the
   detail notes the fault spec and budget under which it misbehaved). *)
let quarantine cfg (e : Manifest.entry) ~signature ~detail =
  match cfg.state_dir with
  | None -> None
  | Some dir -> (
      match In_channel.with_open_bin e.Manifest.path In_channel.input_all with
      | exception Sys_error _ -> None
      | src -> (
          match Inl_ir.Parser.parse src with
          | Error _ -> None
          | Ok prog ->
              let tf = { Tf.steps = []; partial = []; edits = [] } in
              let base =
                Printf.sprintf "finding-%s-%s" e.Manifest.name
                  (Oracle.signature_to_string signature)
              in
              Some
                (Fcorpus.write_finding_base ~dir ~base ~signature ~detail ~prog ~tf
                   ~orig_prog:prog ~orig_tf:tf)))

let run_kernel cfg (e : Manifest.entry) : Record.t =
  let num = Manifest.num e in
  let fm_base = Option.value (num Opt.budget) ~default:(Budget.current ()).Budget.fm_work in
  let ms = Option.value (num Opt.timeout_ms) ~default:cfg.timeout_ms in
  let faults = Option.bind e.Manifest.faults (fun spec -> Result.to_option (Faults.parse spec)) in
  let attempt () =
    clear_process_state ();
    match In_channel.with_open_bin e.Manifest.path In_channel.input_all with
    | exception Sys_error m -> Unreadable m
    | src -> (
        match Inl.analyze_source_result src with
        | Error ds -> Refused ds
        | Ok ctx ->
            let config =
              Search.configure ~ctx ?beam:(num Opt.beam) ?depth:(num Opt.depth)
                ?finalists:(num Opt.finalists) ?size:(num Opt.size) ?seed:(num Opt.seed) ()
            in
            Ran (Search.optimize ~config ctx))
  in
  let blank =
    {
      Record.name = e.Manifest.name;
      status = Record.Failed;
      signature = "";
      detail = "";
      winner = "";
      source_misses = -1;
      winner_misses = -1;
      accesses = -1;
      candidates = 0;
      delta_inherited = 0;
      delta_checked = 0;
      legality_memo_hits = 0;
      mat_memo_hits = 0;
      retried = false;
      degradations = "";
      wall_ms = 0;
      doall = -1;
      exec = "";
    }
  in
  let snap0 = Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  let ladder =
    Retry.run ~fm_work:fm_base ?faults ~timeout_ms:ms
      ~degradable:(function Omega.Blowup m -> Some m | _ -> None)
      attempt
  in
  let wall_ms =
    if cfg.timings then int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) else 0
  in
  let _, counters = Stats.since snap0 in
  let finish ~retried ~extra_codes result =
    match result with
    | Unreadable m ->
        {
          blank with
          Record.detail = "cannot read kernel: " ^ m;
          degradations = sorted_codes extra_codes;
          wall_ms;
        }
    | Refused ds ->
        {
          blank with
          Record.detail = Diag.list_to_string ds;
          degradations =
            sorted_codes (extra_codes @ List.map (fun (d : Diag.t) -> d.Diag.code) ds);
          wall_ms;
        }
    | Ran (o : Search.outcome) ->
        let codes =
          extra_codes @ List.map (fun (d : Diag.t) -> d.Diag.code) o.Search.diags
        in
        let errors = Diag.has_errors o.Search.diags in
        let status =
          if errors || o.Search.winner = None then Record.Failed
          else if retried || codes <> [] then Record.Degraded
          else Record.Clean
        in
        let detail =
          match
            List.find_opt (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) o.Search.diags
          with
          | Some d -> Diag.to_string d
          | None -> ""
        in
        let winner = o.Search.winner in
        (* When the manifest asks for it ([run=]), execute the
           winner for real: the recorded label is wall-time-free
           ({!Exec.label}), so it is stable under the drift guard
           while still pinning the plan and differential verdict. *)
        let exec =
          match (num Opt.run, winner) with
          | Some size, Some w -> (
              match w.Search.program with
              | Some prog ->
                  let params =
                    List.map (fun p -> (p, size)) prog.Inl_ir.Ast.params
                  in
                  let jobs = Option.value (num Opt.threads) ~default:(Opt.default Opt.threads) in
                  Exec.label (Exec.benchmark ~jobs ~repeat:1 prog ~params)
              | None -> "")
          | _ -> ""
        in
        {
          Record.name = e.Manifest.name;
          status;
          signature = "";
          detail;
          winner =
            (match winner with Some w -> Search.recipe_line w.Search.recipe | None -> "");
          source_misses = Option.value o.Search.source_misses ~default:(-1);
          winner_misses =
            (match winner with
            | Some w -> Option.value w.Search.misses ~default:(-1)
            | None -> -1);
          accesses =
            (match winner with
            | Some w -> Option.value w.Search.accesses ~default:(-1)
            | None -> -1);
          candidates = counter counters "search.generated";
          delta_inherited = counter counters "search.legality.delta-inherited";
          delta_checked = counter counters "search.legality.delta-checked";
          legality_memo_hits = counter counters "search.legality.memo_hits";
          mat_memo_hits = counter counters "search.mat.memo_hits";
          retried;
          degradations = sorted_codes codes;
          wall_ms;
          doall = Option.value o.Search.winner_doall ~default:(-1);
          exec;
        }
  in
  match ladder with
  | Retry.Panicked { exn; backtrace } ->
      (* a harness bug, not a kernel verdict: recover like serve's R707,
         revive the pool, quarantine the kernel as a crash finding *)
      Pool.revive ();
      let detail = "worker panic (recovered): " ^ Printexc.to_string exn in
      prerr_string (Printexc.raw_backtrace_to_string backtrace);
      ignore (quarantine cfg e ~signature:Oracle.Crash ~detail);
      {
        blank with
        Record.status = Record.Quarantined;
        signature = "crash";
        detail;
        degradations = "K707";
      }
  | Retry.Completed r -> finish ~retried:false ~extra_codes:[] r
  | Retry.Recovered { value; first = _; fm_work = _ } ->
      finish ~retried:true ~extra_codes:[ "K711" ] value
  | Retry.Exhausted { first; second; fm_work } ->
      let describe = function
        | Retry.Deadline { timeout_ms; _ } ->
            Printf.sprintf "exceeded its %d ms deadline" timeout_ms
        | Retry.Degraded m -> "blew up: " ^ m
      in
      let signature, code =
        match second with
        | Retry.Deadline _ -> (Oracle.Timeout, "K706")
        | Retry.Degraded _ -> (Oracle.Crash, "K708")
      in
      let detail =
        Printf.sprintf
          "kernel %s, and the reduced-budget retry (fm_work=%d) %s; quarantined \
           (faults=%s budget=%d timeout_ms=%d)"
          (describe first) fm_work (describe second)
          (match e.Manifest.faults with Some s -> s | None -> "none")
          fm_base ms
      in
      ignore (quarantine cfg e ~signature ~detail);
      {
        blank with
        Record.status = Record.Quarantined;
        signature = Oracle.signature_to_string signature;
        detail;
        degradations = sorted_codes [ code ];
        wall_ms;
      }

(* ---- the batch loop ---- *)

let describe_record out (r : Record.t) ~timings =
  let timing = if timings then Printf.sprintf " (%d ms)" r.Record.wall_ms else "" in
  match r.Record.status with
  | Record.Clean | Record.Degraded ->
      Format.fprintf out "corpus: %s: %s winner=%S misses=%d->%d%s%s%s@." r.Record.name
        (Record.status_to_string r.Record.status)
        r.Record.winner r.Record.source_misses r.Record.winner_misses
        (if r.Record.exec = "" then "" else " exec=" ^ r.Record.exec)
        (if r.Record.degradations = "" then "" else " [" ^ r.Record.degradations ^ "]")
        timing
  | Record.Quarantined ->
      Format.fprintf out "corpus: %s: quarantined (%s) [%s]%s@." r.Record.name
        r.Record.signature r.Record.degradations timing
  | Record.Failed ->
      Format.fprintf out "corpus: %s: failed: %s%s@." r.Record.name r.Record.detail timing

let run ?(out = Format.std_formatter) ?(stop = fun () -> false) cfg =
  let prepared =
    match cfg.state_dir with
    | None -> Ok ()
    | Some dir -> (
        match Fcorpus.ensure_dir dir with
        | Ok () -> Ok ()
        | Error m ->
            Error [ Diag.errorf ~code:"K700" ~phase:Diag.Corpus "cannot start: %s" m ])
  in
  match prepared with
  | Error _ as e -> e
  | Ok () -> (
      match load_checkpoint cfg with
      | Error _ as e -> e
      | Ok (restored, warnings) ->
          List.iter (fun d -> Format.fprintf out "corpus: %s@." (Diag.to_string d)) warnings;
          let total = List.length cfg.manifest.Manifest.entries in
          if restored <> [] then
            Format.fprintf out "corpus: resuming; %d of %d kernels already recorded@."
              (List.length restored) total;
          let completed = Hashtbl.create 16 in
          List.iter (fun (r : Record.t) -> Hashtbl.replace completed r.Record.name r) restored;
          let diags = ref warnings in
          let records = ref [] in
          let resumed = ref 0 in
          let interrupted = ref false in
          let entries = ref cfg.manifest.Manifest.entries in
          while !entries <> [] && not !interrupted do
            let e = List.hd !entries in
            entries := List.tl !entries;
            match Hashtbl.find_opt completed e.Manifest.name with
            | Some r ->
                incr resumed;
                records := r :: !records
            | None ->
                if stop () then interrupted := true
                else (
                  match run_kernel cfg e with
                  | r ->
                      records := r :: !records;
                      (* persist before announcing: once the record's
                         line is visible on stdout, the checkpoint
                         holding it is already on disk — a SIGKILL
                         right after the announcement cannot lose it *)
                      let ds = save_checkpoint cfg ~records:(List.rev !records) in
                      describe_record out r ~timings:cfg.timings;
                      List.iter
                        (fun d -> Format.fprintf out "corpus: %s@." (Diag.to_string d))
                        ds;
                      diags := !diags @ ds
                  | exception Sigint.Interrupted -> interrupted := true)
          done;
          let records = List.rev !records in
          if !interrupted then
            Format.fprintf out
              "corpus: interrupted after %d of %d kernels; checkpoint flushed, rerun to \
               resume@."
              (List.length records) total
          else
            Format.fprintf out
              "corpus: %d kernels: %d clean, %d degraded, %d quarantined, %d failed%s@." total
              (List.length (List.filter (fun r -> r.Record.status = Record.Clean) records))
              (List.length (List.filter (fun r -> r.Record.status = Record.Degraded) records))
              (List.length
                 (List.filter (fun r -> r.Record.status = Record.Quarantined) records))
              (List.length (List.filter (fun r -> r.Record.status = Record.Failed) records))
              (if !resumed > 0 then Printf.sprintf " (%d restored from checkpoint)" !resumed
               else "");
          Ok { records; resumed = !resumed; interrupted = !interrupted; diags = !diags })
