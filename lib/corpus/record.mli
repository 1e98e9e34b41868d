(** One kernel's result: the unit of checkpointing and of the report.

    A record is everything the consolidated report ({!Runner.render})
    needs for one kernel, in a single escaped tab-separated line — the
    checkpoint payload is just these lines behind a
    {!Inl_serve.Snapshot} header, so a resumed run reconstitutes
    completed kernels exactly and the consolidated report is
    byte-identical to the uninterrupted run's. *)

type status =
  | Clean  (** optimized, winner verified, no degradation *)
  | Degraded  (** answered, but with typed warnings (retry, S90x, ...) *)
  | Quarantined
      (** the retry ladder was exhausted (hang or blowup); the kernel is
          quarantined as a replayable finding *)
  | Failed  (** did not produce a result: unreadable, unparsable, or no
                legal candidate *)

val status_to_string : status -> string
val status_of_string : string -> status option

type t = {
  name : string;
  status : status;
  signature : string;  (** quarantine signature ([timeout]/[crash]); [""] otherwise *)
  detail : string;  (** failure/quarantine detail; [""] otherwise *)
  winner : string;  (** winner recipe line; [""] when there is none *)
  source_misses : int;  (** simulated misses of the untransformed kernel; -1 unknown *)
  winner_misses : int;  (** -1 unknown *)
  accesses : int;  (** winner's simulated accesses; -1 unknown *)
  candidates : int;  (** search funnel: recipes generated *)
  delta_inherited : int;  (** legality verdicts inherited from the parent state *)
  delta_checked : int;  (** legality verdicts that had to be resolved *)
  legality_memo_hits : int;
  mat_memo_hits : int;
  retried : bool;  (** the reduced-budget rung answered (K711) *)
  degradations : string;  (** comma-joined diag codes, deterministic order *)
  wall_ms : int;  (** 0 when the run recorded no timings *)
  doall : int;  (** winner's provably-parallel loop count; -1 unknown *)
  exec : string;
      (** {!Inl_exec.Exec.label} of the winner's real execution (never
          encodes wall time); [""] when the manifest did not ask for
          execution ([run=]) or there is no winner *)
}

val to_line : t -> string
(** One line, no trailing newline; tabs/newlines/backslashes in string
    fields are escaped. *)

val of_line : string -> (t, string) result

val delta_inherit_rate : t -> float
(** inherited / (inherited + checked); [0.] when nothing was checked. *)
