(* The execution runtime: run a (possibly transformed) nest for real on
   OCaml domains.

   The plan is chosen from the DOALL report ({!Inl_verify.Doall}): the
   outermost loop whose status is [Parallel] becomes the fan-out
   dimension.  Execution is the interpreter's staged runner
   ({!Inl_interp.Interp.run}) with that loop handed over as a fan-out:
   each entry of it chunks its iteration range contiguously over the
   Domain pool, and every chunk writes the one dense store in place.
   The DOALL condition is exactly what makes this safe: no two
   iterations of the loop touch a cell that either of them writes, so
   the workers' writes are disjoint and any cell two workers both read
   holds the same value for both.  With several chunks, each worker
   marks the cells it adds to the store in its own map, OR-ed into the
   shared one after the fan-out, so the final store is deterministic —
   and byte-identical to the sequential interpreter, which the
   differential check enforces before any timing is reported. *)

module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag
module Opt = Inl_diag.Opt
module Doall = Inl_verify.Doall
module Interp = Inl_interp.Interp
module Pool = Inl_parallel.Pool
module Omega = Inl_presburger.Omega

type doall = (Ast.path * string * Doall.status) list

type plan = Par of { path : Ast.path; var : string; depth : int } | Seq of Diag.t option

let analyze (prog : Ast.program) : doall =
  let ctx = Omega.new_analysis () in
  Omega.reset_fresh_names ();
  Doall.analyze ~ctx prog

let doall_count (d : doall) =
  List.length (List.filter (fun (_, _, s) -> s = Doall.Parallel) d)

let choose (d : doall) : plan =
  (* depth of a loop = number of loops enclosing it (paths also traverse
     [If]/[Let] nodes, so path length alone over-counts) *)
  let loop_depth path =
    List.length (List.filter (fun (p, _, _) -> Ast.is_proper_prefix p path) d)
  in
  let parallels = List.filter (fun (_, _, s) -> s = Doall.Parallel) d in
  match parallels with
  | first :: rest ->
      (* outermost wins; the report is in DFS order, so the fold's strict
         [<] keeps the syntactically first loop among equal depths *)
      let (path, var, _), depth =
        List.fold_left
          (fun (b, bd) c ->
            let (p, _, _) = c in
            let cd = loop_depth p in
            if cd < bd then (c, cd) else (b, bd))
          (first, loop_depth (let p, _, _ = first in p))
          rest
      in
      Par { path; var; depth }
  | [] ->
      let unknown =
        List.find_map (function p, v, Doall.Unknown m -> Some (p, v, m) | _ -> None) d
      in
      let reason =
        match (unknown, d) with
        | _, [] -> None (* straight-line program: nothing to parallelize *)
        | Some (_, v, m), _ ->
            Some
              (Diag.warningf ~code:"X902" ~phase:Diag.Exec
                 "DOALL analysis inconclusive for loop %s (%s); executing sequentially" v m)
        | None, _ ->
            Some
              (Diag.warningf ~code:"X901" ~phase:Diag.Exec
                 "no DOALL dimension: all %d loops carry dependences; executing sequentially"
                 (List.length d))
      in
      Seq reason

let plan_var = function Par { var; _ } -> Some var | Seq _ -> None

let execute ?(jobs = 1) ?init ?max_steps ~(plan : plan) (prog : Ast.program)
    ~(params : (string * int) list) : Interp.store =
  let fan_out =
    match plan with
    | Seq _ -> None
    | Par { path; _ } ->
        Some
          {
            Interp.loop = path;
            chunks = jobs;
            run_tasks = (fun tasks -> ignore (Pool.map ~jobs (fun task -> task ()) tasks));
          }
  in
  Interp.run ?init ?max_steps ?fan_out prog ~params

type report = {
  plan : plan;
  doall : doall;
  loops : int;
  jobs_requested : int;
  cores : int;
  repeat : int;
  seq_ms : float;
  par_ms : float;
  cells : int;
  notes : Diag.t list;
}

let speedup r = if r.par_ms > 0. then r.seq_ms /. r.par_ms else 1.0

(* Min-of-N wall clock; the result comes from the first run (all runs
   are deterministic, so any would do). *)
let best_of n f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to max 1 n do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if ms < !best then best := ms;
    if !result = None then result := Some r
  done;
  (Option.get !result, !best)

let benchmark ?(jobs = 1) ?(repeat = Opt.default Opt.repeat) ?init ?max_steps (prog : Ast.program)
    ~(params : (string * int) list) : (report, Diag.t list) result =
  match analyze prog with
  | exception Ast.Invalid msg ->
      Error [ Diag.errorf ~code:"X802" ~phase:Diag.Exec "invalid program: %s" msg ]
  | doall -> (
      let plan = choose doall in
      let cores = Domain.recommended_domain_count () in
      let notes =
        (match plan with Seq (Some d) -> [ d ] | _ -> [])
        @
        if jobs > cores then
          [
            Diag.make ~code:"X903" ~severity:Diag.Info ~phase:Diag.Exec
              (Printf.sprintf
                 "%d threads requested but only %d core%s available; speedup is bounded by \
                  the hardware"
                 jobs cores
                 (if cores = 1 then " is" else "s are"));
          ]
        else []
      in
      match
        let seq_store, seq_ms =
          best_of repeat (fun () -> execute ~jobs:1 ?init ?max_steps ~plan:(Seq None) prog ~params)
        in
        let par_store, par_ms =
          best_of repeat (fun () -> execute ~jobs ?init ?max_steps ~plan prog ~params)
        in
        (seq_store, seq_ms, par_store, par_ms)
      with
      | exception Interp.Step_limit n ->
          Error [ Diag.errorf ~code:"X803" ~phase:Diag.Exec "step limit exceeded (%d)" n ]
      | exception Invalid_argument msg ->
          Error [ Diag.errorf ~code:"X802" ~phase:Diag.Exec "%s" msg ]
      | seq_store, seq_ms, par_store, par_ms -> (
          (* the differential gate: no timing leaves this function unless
             the parallel store is byte-identical to the sequential one *)
          match Interp.store_diff seq_store par_store with
          | Error d ->
              Error
                [
                  Diag.errorf ~code:"X801" ~phase:Diag.Exec
                    "parallel execution diverged from the sequential interpreter: %s" d;
                ]
          | Ok () ->
              Ok
                {
                  plan;
                  doall;
                  loops = List.length doall;
                  jobs_requested = jobs;
                  cores;
                  repeat;
                  seq_ms;
                  par_ms;
                  cells = Hashtbl.length seq_store;
                  notes;
                }))

(* Stable one-word-ish label for corpus records and drift guards: never
   encodes wall time. *)
let label : (report, Diag.t list) result -> string = function
  | Error ds -> (
      match ds with [] -> "error" | d :: _ -> "error:" ^ d.Diag.code)
  | Ok r -> (
      match r.plan with
      | Par { var; _ } -> Printf.sprintf "ok:doall=%s" var
      | Seq (Some d) -> "degraded:" ^ d.Diag.code
      | Seq None -> "ok:seq")

let render ?(timings = true) (r : report) : string list =
  let ms v = if timings then Printf.sprintf "%.3f ms" v else "- ms" in
  let sp = if timings then Printf.sprintf "%.2fx" (speedup r) else "-" in
  let plan_line =
    match r.plan with
    | Par { var; depth; _ } ->
        Printf.sprintf "plan: parallel loop %s (depth %d, %d/%d loops doall)" var depth
          (doall_count r.doall) r.loops
    | Seq _ ->
        Printf.sprintf "plan: sequential (%d/%d loops doall)" (doall_count r.doall) r.loops
  in
  [
    plan_line;
    Printf.sprintf "threads: requested=%d cores=%d" r.jobs_requested r.cores;
    Printf.sprintf "differential: ok (%d cells)" r.cells;
    Printf.sprintf "sequential: best-of-%d %s" r.repeat (ms r.seq_ms);
    Printf.sprintf "parallel:   best-of-%d %s (speedup %s)" r.repeat (ms r.par_ms) sp;
  ]
