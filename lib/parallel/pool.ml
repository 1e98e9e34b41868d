(* A tiny fixed Domain pool (the container bans external packages, so no
   domainslib).  Helper domains are spawned once, on first use, and then
   parked on a condition variable between bulk calls — Domain.spawn costs
   milliseconds, so spawning per call would dwarf the fan-outs it serves.
   Work is published as a "batch" (an atomic task counter over an index
   range); helpers and the calling domain race to claim indices, and the
   caller returns only after every task has completed.  Correctness never
   depends on helpers participating: the caller drains the batch itself,
   so a helper that wakes late (or never) only costs parallelism. *)

module Watchdog = Inl_diag.Watchdog

let default_jobs = Atomic.make (Inl_diag.Opt.default Inl_diag.Opt.jobs)

let set_jobs n = Atomic.set default_jobs (max 1 n)
let requested_jobs () = Atomic.get default_jobs

(* The effective process default never exceeds the hardware parallelism:
   running more active domains than cores does not just fail to help, it
   actively hurts — every minor collection is a stop-the-world rendezvous
   across domains, and oversubscribed domains reach their safepoints at
   the mercy of the OS scheduler.  Callers that pass [?jobs] explicitly
   (the determinism tests do) are taken at their word. *)
let jobs () = min (Atomic.get default_jobs) (max 1 (Domain.recommended_domain_count ()))

(* Outcome slot for one task; exceptions are re-raised in the caller, in
   index order, so failures are as deterministic as results. *)
type 'b outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

type batch = {
  id : int;  (* monotonically increasing; helpers skip batches already seen *)
  n : int;
  run : int -> unit;  (* claims nothing; runs task [i] and records its outcome *)
  next : int Atomic.t;  (* next unclaimed task index *)
  slots : int Atomic.t;  (* helper participation cap: jobs - 1 for this call *)
}

type pool = {
  lock : Mutex.t;
  work : Condition.t;  (* a new batch was published, or shutdown *)
  finished : Condition.t;  (* some batch completed its last task *)
  mutable current : batch option;
  mutable next_id : int;
  mutable helpers : int;  (* helper domains alive (caller not counted) *)
  mutable handles : unit Domain.t list;
  mutable shutdown : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    current = None;
    next_id = 0;
    helpers = 0;
    handles = [];
    shutdown = false;
  }

let drain (b : batch) =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      go ()
    end
  in
  go ()

(* Helper life: sleep until a batch newer than the last one seen appears,
   claim a participation slot, drain, repeat; exit on shutdown. *)
let worker () =
  let last = ref 0 in
  Mutex.lock pool.lock;
  let rec loop () =
    if pool.shutdown then Mutex.unlock pool.lock
    else
      match pool.current with
      | Some b when b.id > !last ->
          last := b.id;
          if Atomic.fetch_and_add b.slots (-1) > 0 then begin
            Mutex.unlock pool.lock;
            drain b;
            Mutex.lock pool.lock
          end;
          loop ()
      | _ ->
          Condition.wait pool.work pool.lock;
          loop ()
  in
  loop ()

(* Idempotent: the handle list is taken under the lock, so exactly one
   caller joins each helper no matter how many times (or from how many
   threads) shutdown is invoked.  After shutdown the pool stays usable —
   [map] always drains its batch on the calling domain — it just runs
   without helper parallelism. *)
let shutdown () =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  let handles = pool.handles in
  pool.handles <- [];
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join handles

(* Registered unconditionally at module load (not lazily on first spawn):
   an aborted run can kill the process between [ensure_helpers]'s spawn
   and its bookkeeping, and a parked helper domain must never survive the
   main domain. *)
let () = at_exit shutdown

(* Recovery for long-running processes (the serve daemon): after a
   shutdown — explicit, or a cleanup path that ran early — clear the
   flag so the next [map] can spawn fresh helpers again.  A no-op while
   the pool is live; [shutdown] has already joined every old helper, so
   there is nothing to leak. *)
let revive () =
  Mutex.lock pool.lock;
  if pool.shutdown then begin
    pool.shutdown <- false;
    pool.helpers <- 0
  end;
  Mutex.unlock pool.lock

(* Grow the helper set to [k]; never shrinks — an idle helper parked on
   the condition variable costs nothing measurable. *)
let ensure_helpers k =
  if k > pool.helpers then begin
    Mutex.lock pool.lock;
    let missing = k - pool.helpers in
    if missing > 0 && not pool.shutdown then begin
      pool.helpers <- k;
      pool.handles <- List.init missing (fun _ -> Domain.spawn worker) @ pool.handles
    end;
    Mutex.unlock pool.lock
  end

let run_tasks n_workers n f =
  let results = Array.make n None in
  let completed = Atomic.make 0 in
  let run i =
    (results.(i) <-
       (* An expired watchdog cancels every not-yet-started task: the
          poll raises Timeout before [f] runs, the slot records it like
          any task failure, and the batch completes promptly instead of
          running the remaining fan-out to completion against a deadline
          that has already fired.  The caller then re-raises the
          lowest-index exception — the typed Timeout — exactly as if the
          task itself had polled. *)
       (try
          Watchdog.poll ();
          Some (Value (f i))
        with e -> Some (Raised (e, Printexc.get_raw_backtrace ()))));
    (* the finisher of the last task wakes the submitting caller; the
       broadcast is taken under the pool lock so the caller cannot miss
       it between its check and its wait *)
    if Atomic.fetch_and_add completed 1 = n - 1 then begin
      Mutex.lock pool.lock;
      Condition.broadcast pool.finished;
      Mutex.unlock pool.lock
    end
  in
  ensure_helpers (n_workers - 1);
  Mutex.lock pool.lock;
  pool.next_id <- pool.next_id + 1;
  let b =
    { id = pool.next_id; n; run; next = Atomic.make 0; slots = Atomic.make (n_workers - 1) }
  in
  pool.current <- Some b;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  drain b;
  Mutex.lock pool.lock;
  while Atomic.get completed < n do
    Condition.wait pool.finished pool.lock
  done;
  (match pool.current with Some c when c == b -> pool.current <- None | _ -> ());
  Mutex.unlock pool.lock;
  Array.map
    (function
      | Some (Value v) -> v
      | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let map ?jobs:j f xs =
  let j = match j with Some j -> max 1 j | None -> jobs () in
  match xs with
  | [] -> []
  | _ when j = 1 -> List.map f xs (* bit-exact sequential behaviour *)
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      Array.to_list (run_tasks (min j n) n (fun i -> f arr.(i)))

let filter_map ?jobs f xs = List.filter_map Fun.id (map ?jobs f xs)
