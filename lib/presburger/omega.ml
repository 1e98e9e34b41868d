module Mpz = Inl_num.Mpz
module Budget = Inl_diag.Budget
module Faults = Inl_diag.Faults
module Watchdog = Inl_diag.Watchdog

exception Blowup of string

(* The budget used when a caller does not thread one explicitly; the CLI
   overrides it from --budget / INL_FM_BUDGET. *)
let default_budget = Atomic.make Budget.default
let set_default_budget b = Atomic.set default_budget b
let get_default_budget () = Atomic.get default_budget

(* Per-analysis solver state.  The projection counter lives here — not in
   a process global — so one analysis cannot leak budget consumption into
   the next, and concurrent analyses (or worker domains sharing one
   analysis) meter themselves correctly. *)
type ctx = {
  budget : Budget.t;
  projections : int Atomic.t;
      (* bounded by [Budget.max_projections] so a pathological analysis
         cannot spin through an unbounded number of cheap projections *)
}

(* One shared query cache: canonical keys make entries valid across
   analyses, so sharing maximizes reuse (completion re-checks the same
   dependence systems for every candidate matrix). *)
let shared_cache : System.t list Cache.t = Cache.create ~name:"projection cache" ()
let cache_stats () = Cache.stats shared_cache
let clear_cache () = Cache.clear shared_cache
let cache_snapshot () = Cache.export shared_cache
let cache_restore payload = Cache.import shared_cache payload

(* Cumulative entry-point counters for observability (--stats); distinct
   from the per-ctx budget counter. *)
let sat_calls = Atomic.make 0
let project_calls = Atomic.make 0

let solver_calls () = (Atomic.get sat_calls, Atomic.get project_calls)

let reset_solver_calls () =
  Atomic.set sat_calls 0;
  Atomic.set project_calls 0

let new_analysis ?budget () =
  Faults.reset_counters ();
  {
    budget = (match budget with Some b -> b | None -> get_default_budget ());
    projections = Atomic.make 0;
  }

let wildcard_prefix = "$w"

(* Process-global fresh-name counter (projections never consume from it:
   they scope their own).  Atomic so worker domains can mint names; the
   names feed only into systems solved within the same task, so schedules
   cannot change results. *)
let fresh_counter = Atomic.make 0

let fresh_var () =
  let i = 1 + Atomic.fetch_and_add fresh_counter 1 in
  Printf.sprintf "%s%d" wildcard_prefix i

let reset_fresh_names () = Atomic.set fresh_counter 0

let is_wildcard v =
  String.length v >= 2 && String.equal (String.sub v 0 2) wildcard_prefix

let wildcard_index v =
  if is_wildcard v then int_of_string_opt (String.sub v 2 (String.length v - 2)) else None

(* Symmetric modulo: mod_hat a m = a - m * floor(a/m + 1/2), in (-m/2, m/2].
   Computed as a - m * fdiv (2a + m) (2m). *)
let mod_hat a m =
  let two_m = Mpz.mul Mpz.two m in
  Mpz.sub a (Mpz.mul m (Mpz.fdiv (Mpz.add (Mpz.mul Mpz.two a) m) two_m))

(* Solve an equality [e = 0] for variable [v] whose coefficient in [e] is
   +-1; returns the expression [v] equals. *)
let solve_unit_eq e v =
  let a = Linexpr.coeff e v in
  assert (Mpz.is_one (Mpz.abs a));
  let rest = Linexpr.sub e (Linexpr.term a v) in
  if Mpz.is_one a then Linexpr.neg rest else rest

(* ---- equality elimination (Pugh, CACM '92, section 2.3.1) ----

   A victim in an equality is "progressable" when eliminating it is
   guaranteed to terminate:
   - unit coefficient: direct substitution removes it;
   - non-wildcard victim: one mod-hat step removes it (the derived
     equality gives it a unit coefficient), at the price of one fresh
     wildcard;
   - wildcard whose |coefficient| is the global minimum over the
     equality: the mod-hat step plus content normalization shrinks the
     equality's largest coefficient by >= 6/5 (Pugh's measure), so a unit
     eventually appears.

   A wildcard with a large coefficient in an equality whose smallest
   coefficient belongs to a kept variable is NOT progressable: it encodes
   a genuine divisibility (mod) constraint on the kept variables, which
   conjunctions of affine constraints cannot express.  Such equalities
   stay in the output with the wildcard read existentially — exactly the
   Omega library's convention. *)

let progressable_victim e victim : string option =
  let vars = Linexpr.vars e in
  let victims = List.filter victim vars in
  let abs_coeff v = Mpz.abs (Linexpr.coeff e v) in
  let smallest vs =
    match vs with
    | [] -> None
    | v0 :: rest ->
        Some
          (List.fold_left
             (fun best v -> if Mpz.compare (abs_coeff v) (abs_coeff best) < 0 then v else best)
             v0 rest)
  in
  match smallest (List.filter (fun v -> Mpz.is_one (abs_coeff v)) victims) with
  | Some v -> Some v
  | None -> (
      match smallest (List.filter (fun v -> not (is_wildcard v)) victims) with
      | Some v -> Some v
      | None -> (
          match smallest victims with
          | None -> None
          | Some v ->
              let global_min =
                List.fold_left (fun acc x -> Mpz.min acc (abs_coeff x)) (abs_coeff v) vars
              in
              if Mpz.equal (abs_coeff v) global_min then Some v else None))

(* Eliminate progressable victims from the equality [e = 0] (a member of
   [sys]), staying on this one equality until it is consumed or stuck.
   (Interleaving steps of different equalities would break Pugh's
   termination measure: each substitution grows the other equalities.)
   [fresh] supplies wildcard names scoped to the enclosing projection.
   Returns [None] when the equality is infeasible over the integers. *)
let rec process_equality ~fresh sys (e : Linexpr.t) victim : System.t option =
  match Constr.normalize (Constr.eq e) with
  | `False -> None
  | `True -> Some sys
  | `Constr c -> (
      let e = Constr.expr c in
      match progressable_victim e victim with
      | None -> Some sys (* stuck: the equality stays, wildcard read existentially *)
      | Some x ->
          let a = Linexpr.coeff e x in
          if Mpz.is_one (Mpz.abs a) then
            (* substituting into the defining equality itself leaves 0 = 0,
               which normalization drops *)
            Some (System.subst sys x (solve_unit_eq e x))
          else begin
            let m = Mpz.succ (Mpz.abs a) in
            let sigma = fresh () in
            (* implied equality: sum (a_i mod^ m) x_i + (c mod^ m) - m sigma
               = 0; x's coefficient in it is mod^(a, m) = -sign(a), a unit *)
            let reduced =
              Linexpr.fold
                (fun y ay acc -> Linexpr.add acc (Linexpr.term (mod_hat ay m) y))
                e
                (Linexpr.const (mod_hat (Linexpr.constant e) m))
            in
            let e' = Linexpr.sub reduced (Linexpr.term m sigma) in
            let def = solve_unit_eq e' x in
            process_equality ~fresh (System.subst sys x def) (Linexpr.subst e x def) victim
          end)

(* ---- inequality elimination ---- *)

(* Partition the inequalities on [v] into lower bounds (a, r) meaning
   [a*v + r >= 0] with a > 0, and upper bounds (b, s) meaning
   [b*v <= s] with b > 0. *)
let bounds_on ges v =
  let lowers = ref [] and uppers = ref [] in
  List.iter
    (fun c ->
      let e = Constr.expr c in
      let a = Linexpr.coeff e v in
      let r = Linexpr.sub e (Linexpr.term a v) in
      if Mpz.is_positive a then lowers := (a, r) :: !lowers
      else uppers := (Mpz.neg a, r) :: !uppers)
    ges;
  (List.rev !lowers, List.rev !uppers)

(* Fourier-Motzkin step on a variable that occurs in no equality: returns
   the list of replacement systems.  Exact when every bound pair has a
   unit coefficient; otherwise dark shadow plus splinters (the splinters
   still contain [v], pinned by an equality — the drain loop finishes them
   via the equality path). *)
let inequality_step sys v =
  let eqs, ges, rest = System.split_on sys v in
  assert (eqs = []);
  let lowers, uppers = bounds_on ges v in
  match (lowers, uppers) with
  | [], _ | _, [] ->
      (* v unbounded on one side: the projection drops all its constraints *)
      [ rest ]
  | _ ->
      let exact =
        List.for_all
          (fun (a, _) -> Mpz.is_one a || List.for_all (fun (b, _) -> Mpz.is_one b) uppers)
          lowers
      in
      let shadow dark =
        List.concat_map
          (fun (a, r) ->
            List.map
              (fun (b, s) ->
                (* a*v >= -r and b*v <= s  imply  a*s + b*r >= slack *)
                let lhs = Linexpr.add (Linexpr.scale a s) (Linexpr.scale b r) in
                let slack = if dark then Mpz.mul (Mpz.pred a) (Mpz.pred b) else Mpz.zero in
                Constr.ge (Linexpr.add_const lhs (Mpz.neg slack)))
              uppers)
          lowers
        @ rest
      in
      if exact then [ shadow false ]
      else begin
        let bmax = List.fold_left (fun acc (b, _) -> Mpz.max acc b) Mpz.one uppers in
        let splinters =
          List.concat_map
            (fun (a, r) ->
              if Mpz.is_one a then []
              else begin
                (* any integer solution missed by the dark shadow glues to a
                   lower bound: a*v + r = k for k in 0 .. (a*bmax-a-bmax)/bmax *)
                let top = Mpz.fdiv (Mpz.sub (Mpz.mul a bmax) (Mpz.add a bmax)) bmax in
                let rec ks k acc =
                  if Mpz.compare k top > 0 then List.rev acc else ks (Mpz.succ k) (k :: acc)
                in
                List.map
                  (fun k ->
                    System.add
                      (Constr.eq (Linexpr.add_const (Linexpr.add (Linexpr.term a v) r) (Mpz.neg k)))
                      sys)
                  (ks Mpz.zero [])
              end)
            lowers
        in
        shadow true :: splinters
      end

(* Victims eliminable by FM: those that occur in no equality of the
   system.  Preference: exact pairs first, then fewest pair products. *)
let pick_fm_variable sys victim =
  let candidates =
    List.filter (fun v -> victim v && not (List.exists (fun c -> Constr.is_eq c && Constr.mem c v) sys))
      (System.vars sys)
  in
  match candidates with
  | [] -> None
  | _ ->
      let cost v =
        let _, ges, _ = System.split_on sys v in
        let lowers, uppers = bounds_on ges v in
        let exact =
          List.for_all
            (fun (a, _) -> Mpz.is_one a || List.for_all (fun (b, _) -> Mpz.is_one b) uppers)
            lowers
        in
        let pairs = List.length lowers * List.length uppers in
        (if exact then 0 else 1000) + pairs
      in
      let best =
        List.fold_left
          (fun acc v ->
            let c = cost v in
            match acc with Some (_, c') when c' <= c -> acc | _ -> Some (v, c))
          None candidates
      in
      Option.map fst best

let max_coeff_bits sys =
  List.fold_left
    (fun acc c ->
      let e = Constr.expr c in
      Linexpr.fold
        (fun _ a acc -> max acc (Mpz.num_bits a))
        e
        (max acc (Mpz.num_bits (Linexpr.constant e))))
    0 sys

(* The projection engine proper, on an already-canonicalized system. *)
let project_run ~budget sys ~keep =
  let work_limit = Faults.effective_work budget.Budget.fm_work in
  (* Wildcard names are scoped to this projection, starting above any
     wildcard already present in the input: repeated projections of equal
     systems produce identical output, independent of process history. *)
  let next =
    List.fold_left
      (fun acc v -> match wildcard_index v with Some i -> max acc i | None -> acc)
      0 (System.vars sys)
    |> ref
  in
  let fresh () =
    incr next;
    Printf.sprintf "%s%d" wildcard_prefix !next
  in
  (* wildcards introduced by mod-hat steps are never answer variables *)
  let victim v = (not (keep v)) || is_wildcard v in
  (* Work is charged per constraint examined, not per disjunct: the cost
     of handling a work item is proportional to its size, and a
     constraint-level measure lets small budgets bite on small systems
     (useful for testing the degraded path). *)
  let rec drain pending done_ count =
    (* the wall-clock watchdog (if one is installed) is polled exactly
       where the work budget is metered: every place the engine can spend
       unbounded time also passes through here *)
    Watchdog.poll ();
    if count > work_limit then
      raise (Blowup (Printf.sprintf "work budget exhausted (%d items)" work_limit));
    match pending with
    | [] -> List.rev done_
    | sys :: rest -> (
        let count = count + max 1 (List.length sys) in
        match System.normalize sys with
        | None -> drain rest done_ count
        | Some sys -> (
            if max_coeff_bits sys > budget.Budget.max_coeff_bits then
              raise
                (Blowup
                   (Printf.sprintf "coefficient growth exceeded %d bits"
                      budget.Budget.max_coeff_bits));
            (* equality path first: any equality with a progressable victim *)
            let workable =
              List.find_map
                (fun c ->
                  if Constr.is_eq c then
                    match progressable_victim (Constr.expr c) victim with
                    | Some _ -> Some c
                    | None -> None
                  else None)
                sys
            in
            match workable with
            | Some c -> (
                match process_equality ~fresh sys (Constr.expr c) victim with
                | None -> drain rest done_ count
                | Some sys' -> drain (sys' :: rest) done_ count)
            | None -> (
                match pick_fm_variable sys victim with
                | None -> drain rest (sys :: done_) count
                | Some v -> drain (inequality_step sys v @ rest) done_ count)))
  in
  drain [ sys ] [] 0

(* Resolve the effective solver state for an entry point: an explicit
   [?ctx] (its budget overridable by [?budget]), else an ephemeral context
   on the default budget and the shared cache. *)
let resolve ?ctx ?budget () =
  match (ctx, budget) with
  | Some c, None -> c
  | Some c, Some b -> { c with budget = b }
  | None, _ -> new_analysis ?budget ()

let project ?ctx ?budget sys ~keep =
  let ctx = resolve ?ctx ?budget () in
  Atomic.incr project_calls;
  let n = 1 + Atomic.fetch_and_add ctx.projections 1 in
  if n > ctx.budget.Budget.max_projections then
    raise
      (Blowup
         (Printf.sprintf "projection count exceeded the analysis budget (%d)"
            ctx.budget.Budget.max_projections));
  (match Faults.project_fault () with
  | `None -> ()
  | `Fail -> raise (Blowup "injected fault: forced projection failure")
  | `Hang ->
      (* a simulated lost-progress solver: spins until the watchdog
         (when installed) raises Timeout *)
      Watchdog.hang ());
  (* Both the cached and uncached paths run on the canonical system, so a
     cache hit is bit-identical to a recomputation and cache-on/cache-off
     runs cannot diverge.  (The engine normalizes every work item anyway;
     canonicalization only pre-folds the first.) *)
  match System.canonicalize sys with
  | None -> []
  | Some csys when Faults.active () ->
      (* fault injection bypasses the cache entirely: injected failures
         must fire on their exact schedule, and partial runs under caps
         must not be masked by earlier successes *)
      project_run ~budget:ctx.budget csys ~keep
  | Some csys ->
      let kept = List.filter (fun v -> keep v && not (is_wildcard v)) (System.vars csys) in
      Cache.memo shared_cache { Cache.Key.sys = csys; kept; budget = ctx.budget } (fun () ->
          project_run ~budget:ctx.budget csys ~keep)

let satisfiable ?ctx ?budget sys =
  (* with nothing kept, every variable is a victim and equality
     elimination always progresses (the global minimum is a victim), so
     stuck wildcards cannot survive; any surviving disjunct is a
     normalized constant-free system, i.e. satisfiable *)
  Atomic.incr sat_calls;
  match project ?ctx ?budget sys ~keep:(fun _ -> false) with [] -> false | _ :: _ -> true

(* ---- implied intervals ---- *)

(* Interval of [v] in a single disjunct over {v} + wildcards.  Constraints
   free of wildcards contribute exact bounds; constraints touching a
   wildcard are dropped (a sound relaxation).  The bool is true when the
   interval is exact (no constraint was dropped). *)
let interval_1d sys v : Interval.t * bool =
  match System.normalize sys with
  | None -> (Interval.(make PosInf NegInf), true)
  | Some sys ->
      List.fold_left
        (fun (acc, exact) c ->
          let e = Constr.expr c in
          let a = Linexpr.coeff e v in
          let cst = Linexpr.constant e in
          let others = List.filter (fun x -> not (String.equal x v)) (Linexpr.vars e) in
          if others <> [] then (acc, false)
          else if Mpz.is_zero a then (acc, exact)
          else
            match c with
            | Constr.Ge _ ->
                if Mpz.is_positive a then
                  (* a v + c >= 0: v >= ceil(-c / a) *)
                  (Interval.inter acc (Interval.make (Fin (Mpz.cdiv (Mpz.neg cst) a)) PosInf), exact)
                else
                  (Interval.inter acc (Interval.make NegInf (Fin (Mpz.fdiv (Mpz.neg cst) a))), exact)
            | Constr.Eq _ ->
                if Mpz.is_zero (Mpz.fmod (Mpz.neg cst) a) then
                  (Interval.inter acc (Interval.point (Mpz.fdiv (Mpz.neg cst) a)), exact)
                else (Interval.(make PosInf NegInf), exact))
        (Interval.top, true) sys

(* Galloping threshold: a bound beyond 2^42 in magnitude is reported as
   infinite.  Sound for this code base: dependence systems have unit-to-
   small coefficients and constants, whose extreme finite bounds are tiny;
   anything astronomically large is a symbolic (parameter-driven)
   unbounded direction. *)
let gallop_bits = 42

let sat_with ?ctx ?budget sys cs = satisfiable ?ctx ?budget (System.append cs sys)

let var_ge v c = Constr.ge2 (Linexpr.var v) (Linexpr.const c)
let var_le v c = Constr.le2 (Linexpr.var v) (Linexpr.const c)

(* Largest integer c such that [pred c] holds, searching within [lo, hi]
   given pred lo = true; pred is antitone. *)
let rec bsearch_max pred lo hi =
  if Mpz.compare lo hi >= 0 then lo
  else begin
    let mid = Mpz.cdiv (Mpz.add lo hi) Mpz.two in
    if pred mid then bsearch_max pred mid hi else bsearch_max pred lo (Mpz.pred mid)
  end

let implied_interval ?ctx ?budget sys v =
  let disjuncts = project ?ctx ?budget sys ~keep:(fun x -> String.equal x v) in
  let hull, all_exact =
    List.fold_left
      (fun (acc, exact) d ->
        let i, e = interval_1d d v in
        (Interval.hull acc i, exact && e))
      (Interval.(make PosInf NegInf), true)
      disjuncts
  in
  if all_exact || Interval.is_empty hull then hull
  else if not (satisfiable ?ctx ?budget sys) then Interval.(make PosInf NegInf)
  else begin
    (* tighten the relaxed hull by probing the original system *)
    let big = Mpz.pow Mpz.two gallop_bits in
    let neg_big = Mpz.neg big in
    let hi =
      match hull.Interval.hi with
      | Interval.NegInf -> Interval.NegInf
      | Interval.PosInf ->
          if sat_with ?ctx ?budget sys [ var_ge v big ] then Interval.PosInf
          else
            Interval.Fin (bsearch_max (fun c -> sat_with ?ctx ?budget sys [ var_ge v c ]) neg_big big)
      | Interval.Fin h ->
          (* h is a sound upper bound; the true max is the largest c <= h
             with sat(v >= c) *)
          Interval.Fin (bsearch_max (fun c -> sat_with ?ctx ?budget sys [ var_ge v c ]) neg_big h)
    in
    let lo =
      match hull.Interval.lo with
      | Interval.PosInf -> Interval.PosInf
      | Interval.NegInf ->
          if sat_with ?ctx ?budget sys [ var_le v neg_big ] then Interval.NegInf
          else
            Interval.Fin
              (Mpz.neg
                 (bsearch_max (fun c -> sat_with ?ctx ?budget sys [ var_le v (Mpz.neg c) ]) neg_big big))
      | Interval.Fin l ->
          Interval.Fin
            (Mpz.neg
               (bsearch_max
                  (fun c -> sat_with ?ctx ?budget sys [ var_le v (Mpz.neg c) ])
                  neg_big (Mpz.neg l)))
    in
    Interval.make lo hi
  end

let implies ?ctx ?budget sys c =
  (* sys => c  iff  sys /\ not c  is unsatisfiable.  For Ge e, not c is
     e <= -1; for Eq e it is e >= 1 \/ e <= -1. *)
  let e = Constr.expr c in
  match c with
  | Constr.Ge _ ->
      not
        (satisfiable ?ctx ?budget
           (System.add (Constr.ge (Linexpr.add_const (Linexpr.neg e) Mpz.minus_one)) sys))
  | Constr.Eq _ ->
      (not
         (satisfiable ?ctx ?budget (System.add (Constr.ge (Linexpr.add_const e Mpz.minus_one)) sys)))
      && not
           (satisfiable ?ctx ?budget
              (System.add (Constr.ge (Linexpr.add_const (Linexpr.neg e) Mpz.minus_one)) sys))
