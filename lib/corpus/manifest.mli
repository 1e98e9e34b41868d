(** Kernel manifests: the input of [inltool corpus].

    A manifest is a line-oriented text file next to the kernels it
    names (paths resolve relative to the manifest's directory):

    {v
    # comment
    kernel <name> <relpath> [key=value ...]
    v}

    Recognized keys, all optional, all overriding the runner's
    defaults for that kernel only: [size], [seed], [beam], [depth],
    [finalists] (search configuration, range-checked by
    {!Inl_search.Search.configure} — the rule the CLI and serve apply —
    which also gives big kernels the automatic widening for whatever is
    not pinned here), [timeout_ms] (per-kernel watchdog, [0]
    disables), [budget] (per-kernel Fourier-Motzkin work budget),
    [faults] (an {!Inl_diag.Faults} spec — how the acceptance drill
    poisons a kernel on purpose), [run] (execute the winner for real at
    this problem size through {!Inl_exec.Exec} and record the outcome
    label), and [threads] (worker domains for that execution;
    default 2).

    Malformed lines, duplicate kernel names, unknown keys and invalid
    values are all typed [K701] errors naming the offending line; a
    manifest either loads completely or not at all.  {!fingerprint} is
    the checksum the checkpoint records so a resume against an edited
    manifest is refused ([K703]) instead of silently mixing configs. *)

type entry = {
  name : string;  (** unique, [A-Za-z0-9_.-]+; keys records and findings *)
  path : string;  (** absolute, resolved against the manifest directory *)
  size : int option;
  seed : int option;
  beam : int option;
  depth : int option;
  finalists : int option;
  timeout_ms : int option;
  budget : int option;
  faults : string option;  (** validated spec text *)
  run : int option;  (** execute the winner at this size; [None] = don't *)
  threads : int option;  (** worker domains for [run=]; default 2 *)
}

type t = {
  dir : string;
  entries : entry list;  (** manifest order — the run and report order *)
  fingerprint : string;  (** FNV-1a 64 of the manifest bytes, hex *)
}

val load : string -> (t, Inl_diag.Diag.t list) result
(** Parse and validate a manifest file.  Kernel {e files} are not read
    here — a missing kernel file is a per-kernel failure record at run
    time, not a refusal to start the batch. *)
