(** Kernel manifests: the input of [inltool corpus].

    A manifest is a line-oriented text file next to the kernels it
    names (paths resolve relative to the manifest's directory):

    {v
    # comment
    kernel <name> <relpath> [key=value ...]
    v}

    Recognized keys, all optional, all overriding the runner's
    defaults for that kernel only: the integer keys are the
    {!Inl_diag.Opt} declarations that name the manifest, each checked
    by its declaration — [size], [seed], [beam], [depth], [finalists]
    (search configuration; {!Inl_search.Search.configure} fills in the
    rest), [timeout_ms] (per-kernel watchdog, [0] disables), [budget]
    (per-kernel work budget), [run] (execute the winner at this size
    through {!Inl_exec.Exec} and record the outcome label) and
    [threads] (worker domains for that execution; default 2) — plus
    [faults] (an {!Inl_diag.Faults} spec: how the acceptance drill
    poisons a kernel on purpose).

    Malformed lines, duplicate kernel names, unknown keys and invalid
    values are all typed [K701] errors naming the offending line; a
    manifest either loads completely or not at all.  {!fingerprint} is
    the checksum the checkpoint records so a resume against an edited
    manifest is refused ([K703]) instead of silently mixing configs. *)

type entry = {
  name : string;  (** unique, [A-Za-z0-9_.-]+; keys records and findings *)
  path : string;  (** absolute, resolved against the manifest directory *)
  nums : (string * int) list;  (** the integer keys given, by name; read with {!num} *)
  faults : string option;  (** validated spec text *)
}

val num : entry -> Inl_diag.Opt.t -> int option
(** The entry's value for a declared option; [None] when the line does
    not give it (the runner's default applies). *)

val keys : string list
(** Every recognized key: the integer keys derived from the
    declarations, then [faults]. *)

type t = {
  dir : string;
  entries : entry list;  (** manifest order — the run and report order *)
  fingerprint : string;  (** FNV-1a 64 of the manifest bytes, hex *)
}

val load : string -> (t, Inl_diag.Diag.t list) result
(** Parse and validate a manifest file.  Kernel {e files} are not read
    here — a missing kernel file is a per-kernel failure record at run
    time, not a refusal to start the batch. *)
