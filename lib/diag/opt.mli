(** Every numeric option of every front end, declared once: its name,
    minimum, default and the front ends that take it.  [inltool] builds
    each numeric argument from a declaration and checks it before any
    command body runs (D702); serve reads each declared request field
    through one reader that refuses a mistyped or out-of-range value
    (R703); a manifest's integer keys are the declarations that name it
    (K701).  Library defaults ([Search.default_config], {!Budget.default},
    [Server.default_config], ...) are read from here too.  Only ranges
    are uniform: a front end may keep its own default (serve's [fuzz]
    runs 20 cases, [inltool fuzz] 100; [run -N] defaults to 6). *)

type front = Cli | Serve | Manifest

type t = private {
  name : string;  (** manifest key and request field; the CLI flag is {!flag} *)
  min : int;
  default : int option;  (** [None]: absence means "off" or a derived value *)
  fronts : front list;
}

val beam : t
val depth : t
val finalists : t
val size : t
val seed : t
val budget : t
val timeout_ms : t
val jobs : t
val threads : t
val repeat : t
val run : t
val cases : t
val case_timeout_ms : t
val work : t
val line_elems : t
val queue_cap : t
val max_request_bytes : t
val checkpoint_every : t

val taken_by : front -> t list
(** The declarations that name the front end. *)

val default : t -> int
(** Raises [Invalid_argument] for an option declared without one. *)

val flag : t -> string
(** The long CLI flag: the name with ['_'] spelled ['-']. *)

val expected : t -> string
(** ["an integer >= <min>"] *)

val check : ?name:string -> t -> int -> (int, string) result
(** [Ok n] when [n >= min], else ["<name>=<n>: expected an integer >= <min>"]
    — the one message every front end wraps in its own code; [name]
    defaults to the declaration's. *)

val parse : t -> string -> (int, string) result
(** [int_of_string_opt], then {!check}; non-integers get the same refusal. *)
