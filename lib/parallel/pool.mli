(** A minimal fixed Domain pool for the solver fan-outs (dependence
    pairs, per-dependence legality, verify ILP checks, completion
    candidates).

    Guarantees:
    - results come back in input order, independent of schedule;
    - an exception raised by a task is re-raised in the caller (the
      lowest-index failure when several tasks fail);
    - [jobs = 1] executes exactly [List.map] on the calling domain — no
      domains are involved, so sequential behaviour is bit-identical;
    - helper domains are spawned once (lazily, on the first call needing
      them) and parked between calls; each call caps participation at
      [jobs - 1] helpers plus the calling domain.  An [at_exit] hook
      retires them, and correctness never depends on a helper waking up:
      the caller drains every batch itself. *)

val set_jobs : int -> unit
(** Set the requested process-default worker count (clamped to >= 1); the
    CLI wires [--jobs] / [INL_JOBS] here. *)

val requested_jobs : unit -> int
(** The value last given to {!set_jobs} (initially 1). *)

val jobs : unit -> int
(** The effective process default: the requested count capped at
    [Domain.recommended_domain_count ()] — oversubscribing cores with
    active domains makes every minor-GC rendezvous slower, so asking for
    more workers than the machine has can only lose.  Explicit [?jobs]
    arguments below are not capped. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] with results in input order; [?jobs] overrides the process
    default for this call. *)

val filter_map : ?jobs:int -> ('a -> 'b option) -> 'a list -> 'b list

val revive : unit -> unit
(** Undo a {!shutdown}: clear the retired flag so the next {!map} can
    spawn fresh helper domains.  The serve daemon calls this after
    recovering from a worker panic whose cleanup path shut the pool
    down; while the pool is live it is a no-op. *)

val shutdown : unit -> unit
(** Retire every parked helper domain (idempotent — safe to call any
    number of times, from cleanup paths and the [at_exit] hook alike;
    each helper is joined exactly once).  Registered via [at_exit] at
    module load, so an aborted run — e.g. a fuzz case killed by the
    watchdog — never leaves helper domains alive.  The pool remains
    usable afterwards: {!map} still drains every batch on the calling
    domain, only without helper parallelism. *)
