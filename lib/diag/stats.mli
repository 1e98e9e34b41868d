(** Process-wide wall-time accounting per pipeline phase, feeding
    [inltool --stats] and serve's per-request statistics.  Thread-safe
    (one mutex); timings are cumulative for the life of the process. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed phase f] runs [f], charging its wall time to [phase] (also on
    exception). *)

val add : string -> float -> unit
(** Charge [dt] seconds to a phase directly. *)

val phases : unit -> (string * float * int) list
(** [(phase, total_wall_seconds, timed_calls)], sorted by phase name. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the named event counter — the search
    subsystem uses these for its pruning funnel (candidates generated /
    pruned by legality / statically scored / simulated).  Same mutex and
    lifetime as the phase timings. *)

val counters : unit -> (string * int) list
(** All event counters, sorted by name. *)

type snapshot
(** A point-in-time copy of every phase timing and counter. *)

val snapshot : unit -> snapshot

val since : snapshot -> (string * float * int) list * (string * int) list
(** [(phase deltas, counter deltas)] accumulated after the snapshot was
    taken, zero entries omitted — how the serve daemon scopes the
    process-cumulative statistics to one request without resetting them
    under concurrent readers. *)
