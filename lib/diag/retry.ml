type policy = {
  budget_divisor : int;
  min_budget : int;
  timeout_divisor : int;
  min_timeout_ms : int;
}

let default_policy = { budget_divisor = 10; min_budget = 1_000; timeout_divisor = 4; min_timeout_ms = 50 }

let reduced_budget p fm = max p.min_budget (fm / p.budget_divisor)
let reduced_timeout p ms = if ms <= 0 then 0 else max p.min_timeout_ms (ms / p.timeout_divisor)

type reason = Deadline of { timeout_ms : int; elapsed : float } | Degraded of string

type 'a outcome =
  | Completed of 'a
  | Recovered of { value : 'a; first : reason; fm_work : int }
  | Exhausted of { first : reason; second : reason; fm_work : int }
  | Panicked of { exn : exn; backtrace : Printexc.raw_backtrace }

(* One rung: the attempt's own deadline becomes [`Deadline], a
   degradable exception becomes [`Degraded], everything else propagates.
   [Watchdog.with_timeout] already re-raises a Timeout belonging to an
   outer deadline, and [classify] re-raises it again for the
   no-deadline path, so the ladder can never swallow a caller's
   watchdog. *)
let attempt ~degradable f ~timeout_ms =
  let classify e =
    match e with
    | Watchdog.Timeout _ -> raise e
    | e -> ( match degradable e with Some m -> `Degraded m | None -> raise e)
  in
  if timeout_ms <= 0 then match f () with v -> `Ok v | exception e -> classify e
  else
    match Watchdog.with_timeout ~ms:timeout_ms f with
    | Ok v -> `Ok v
    | Error elapsed -> `Deadline (Deadline { timeout_ms; elapsed })
    | exception e -> classify e

let ladder policy ~fm_work ~timeout_ms rung =
  match rung ~fm_work ~timeout_ms with
  | `Ok v -> Completed v
  | (`Deadline _ | `Degraded _) as failed -> (
      let first = match failed with `Deadline r -> r | `Degraded m -> Degraded m in
      let fm' = reduced_budget policy fm_work in
      let ms' = reduced_timeout policy timeout_ms in
      match rung ~fm_work:fm' ~timeout_ms:ms' with
      | `Ok v -> Recovered { value = v; first; fm_work = fm' }
      | `Deadline second -> Exhausted { first; second; fm_work = fm' }
      | `Degraded m -> Exhausted { first; second = Degraded m; fm_work = fm' })

let run ?(policy = default_policy) ?fm_work ?faults ~timeout_ms ~degradable f =
  let base_budget = Budget.current () in
  let base_faults = Faults.current () in
  let restore () =
    Budget.install base_budget;
    if faults <> None then Faults.install base_faults
  in
  (* the budget and fault spec are (re)installed per attempt, so injected
     failures fire on the same schedule on both rungs *)
  let rung ~fm_work ~timeout_ms =
    Option.iter Faults.install faults;
    Budget.install (Budget.with_fm_work base_budget fm_work);
    attempt ~degradable f ~timeout_ms
  in
  let fm_work = Option.value fm_work ~default:base_budget.Budget.fm_work in
  let outcome =
    match ladder policy ~fm_work ~timeout_ms rung with
    | outcome -> outcome
    | exception ((Sigint.Interrupted | Watchdog.Timeout _) as e) ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt
    | exception exn -> Panicked { exn; backtrace = Printexc.get_raw_backtrace () }
  in
  restore ();
  outcome
