(** The crash-tolerant bulk runner behind [inltool corpus].

    One manifest in, one consolidated report out, and no kernel can
    take the batch down:

    - every kernel runs under its own watchdog deadline, work budget
      and fault spec (manifest overrides over the runner defaults),
      installed and restored by the shared attempt scope
      ({!Inl_diag.Retry.run});
    - a hang or an escaped solver blowup gets exactly one retry at
      sharply reduced budget through the shared ladder
      ({!Inl_diag.Retry}); if the retry also fails, the kernel is
      recorded as [quarantined] with a typed tag ([K706] deadline /
      [K708] blowup) and written to the state directory as a replayable
      finding in the fuzz-corpus format — the batch moves on;
    - any other exception is a worker panic: recovered as [K707], the
      Domain pool revived, the kernel quarantined as a [crash] finding;
    - after every kernel the full record set is checkpointed through
      {!Inl_serve.Snapshot} + {!Inl_diag.Atomicio}, so a SIGKILL at any
      moment loses at most the kernel in flight; the next run restores
      completed records, skips them, and produces the same report;
    - a checkpoint recorded under a different manifest or runner
      configuration is refused ([K703]) — delete it or restore the
      config; an unreadable checkpoint is a [K704] warning and a cold
      start;
    - the [stop] hook (SIGINT) is honoured between kernels and at
      search generation boundaries; the checkpoint is already flushed,
      so rerunning resumes.

    Determinism: each kernel starts from cold process-wide caches
    (projection, legality, reuse, search memos — cleared per attempt),
    so its record does not depend on batch order or on where a resumed
    run restarted; with [timings = false] the records, and therefore
    the rendered BENCH_corpus.json, are byte-identical between an
    interrupted + resumed run and an uninterrupted one. *)

type config = {
  manifest : Manifest.t;
  state_dir : string option;
      (** checkpoint + quarantined findings; [None] = no persistence *)
  timeout_ms : int;  (** default per-kernel watchdog; [<= 0] disables *)
  timings : bool;  (** [false]: record [wall_ms = 0] (byte-identity drills) *)
  jobs : int;  (** recorded in the checkpoint header (config-mismatch refusal) *)
}

type report = {
  records : Record.t list;  (** manifest order; completed kernels only *)
  resumed : int;  (** records restored from the checkpoint, not rerun *)
  interrupted : bool;  (** the CLI maps this to exit 130 *)
  diags : Inl_diag.Diag.t list;  (** runner-level warnings ([K704] cold start) *)
}

val run : ?out:Format.formatter -> ?stop:(unit -> bool) -> config -> (report, Inl_diag.Diag.t list) result
(** [Error] is reserved for refusals to start: an unusable state
    directory ([K700]) or a checkpoint/config mismatch ([K703]).
    Per-kernel misbehaviour of any kind becomes a record. *)

val checkpoint_kind : string
val checkpoint_version : int
val checkpoint_path : string -> string
(** [checkpoint_path state_dir]; exposed for the drills and tests. *)
