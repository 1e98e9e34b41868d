(** Typed diagnostics for the whole pipeline.

    Every user-facing failure or degradation travels as a {!t}: a stable
    machine-readable code, a severity, the pipeline phase that produced
    it, a human message, and an optional source span.  Entry points that
    used to throw [Failure]/[Invalid_argument] return
    [('a, t list) result] instead; the driver renders the list on stderr
    and maps it to an exit code ({!exit_code}): 0 clean, 1 error,
    2 degraded-but-succeeded (warnings only). *)

type severity = Error | Warning | Info

type phase =
  | Parse
  | Layout
  | Analysis
  | Presburger
  | Legality
  | Completion
  | Codegen
  | Interp
  | Verify
  | Search
  | Serve
  | Corpus
  | Exec
  | Driver

type span = { line : int }
(** Source location, as far as the surface parser tracks one. *)

type t = {
  code : string;  (** stable, grep-able, e.g. ["A201"] *)
  severity : severity;
  phase : phase;
  message : string;
  span : span option;
}

val make : ?span:span -> code:string -> severity:severity -> phase:phase -> string -> t
val error : ?span:span -> code:string -> phase:phase -> string -> t
val warning : ?span:span -> code:string -> phase:phase -> string -> t
val info : ?span:span -> code:string -> phase:phase -> string -> t

val errorf :
  ?span:span -> code:string -> phase:phase -> ('a, Format.formatter, unit, t) format4 -> 'a

val warningf :
  ?span:span -> code:string -> phase:phase -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_to_string : severity -> string
val phase_to_string : phase -> string

val to_string : t -> string
(** ["error[L301] legality: <message>"], with [" (line N)"] appended when
    a span is present. *)

val list_to_string : t list -> string
(** Newline-joined {!to_string} of every element. *)

val pp : Format.formatter -> t -> unit

val has_errors : t list -> bool
val has_warnings : t list -> bool

val exit_code : t list -> int
(** 1 if any error, 2 if warnings only, 0 otherwise — the process exit
    contract of [inltool]. *)

val to_fields : t -> (string * string) list
(** Stable wire encoding: [("code", _); ("severity", _); ("phase", _);
    ("message", _)] plus [("line", _)] when a span is present.  The serve
    protocol maps these fields structurally into its JSON responses, so
    keys are append-only. *)
