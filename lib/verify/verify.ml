(* Driver: one entry point combining the lint pass, the DOALL analysis
   and (when a source program is supplied) translation validation. *)

module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Diag = Inl_diag.Diag
module Omega = Inl_presburger.Omega

type report = {
  lint : Diag.t list;
  loops : (Ast.path * string * Doall.status) list;
  equiv : Diag.t list;
      (** translation-validation findings; empty when no source program
          was supplied (or when lint found structural errors) *)
}

(* Several contexts / branch pairs can degrade or fail the same way;
   identical (code, message) findings carry no extra information. *)
let dedup (ds : Diag.t list) : Diag.t list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Diag.t) ->
      let k = (d.Diag.code, d.Diag.message) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    ds

let run ?against (prog : Ast.program) : report =
  Inl_diag.Stats.timed "verify" (fun () ->
      (* fresh per-run solver state: projection metering and fault
         counters start at zero, wildcard numbering restarts so repeated
         runs in one process are deterministic *)
      let ctx = Omega.new_analysis () in
      Omega.reset_fresh_names ();
      let lint = dedup (Lint.run prog) in
      (* On a structurally broken program (V005/V007) the execution sets
         are meaningless; deeper analyses would only cascade. *)
      let structural = Diag.has_errors lint in
      let loops = if structural then [] else Doall.analyze ~ctx prog in
      let equiv =
        match against with
        | Some source when not structural -> dedup (Equiv.check ~ctx ~source prog)
        | _ -> []
      in
      { lint; loops; equiv })

let diags (r : report) : Diag.t list = r.lint @ r.equiv

(* The one reading of a report that every front end renders: an error
   fails it, a warning (a lint finding or a budget-degraded check)
   leaves it incomplete. *)
type verdict = Verified | Incomplete | Failed

let verdict (r : report) : verdict =
  let ds = diags r in
  if Diag.has_errors ds then Failed else if Diag.has_warnings ds then Incomplete else Verified

let verdict_to_string = function
  | Verified -> "verified"
  | Incomplete -> "incomplete"
  | Failed -> "failed"

(* The input program with "/* parallel */" on every provably parallel
   loop header. *)
let annotated (prog : Ast.program) (loops : (Ast.path * string * Doall.status) list) : string =
  let annot path =
    match List.find_opt (fun (p, _, _) -> p = path) loops with
    | Some (_, _, Doall.Parallel) -> Some "parallel"
    | _ -> None
  in
  Pp.program_to_string_annot ~annot prog

let loop_summary (loops : (Ast.path * string * Doall.status) list) : string list =
  List.map
    (fun (_, var, status) ->
      match status with
      | Doall.Parallel -> Printf.sprintf "loop %s: parallel" var
      | Doall.Serial ws ->
          Printf.sprintf "loop %s: serial (%s)" var
            (String.concat "; " (List.map Doall.witness_to_string ws))
      | Doall.Unknown msg -> Printf.sprintf "loop %s: unknown (%s)" var msg)
    loops
