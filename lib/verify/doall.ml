(* DOALL / race detection: a loop level is parallel when it carries no
   dependence — no two distinct iterations of the loop (under equal
   values of the enclosing shared loops) touch the same array cell with
   at least one write.  This is the standard race-freedom condition: if
   it holds, the loop's iterations commute and can run concurrently.

   The check is an ILP satisfiability question per conflicting
   reference pair, built from the execution sets of [Instances] — so it
   works on generated code (guards, lets, strides, covering bounds)
   where [Inl_depend.Analysis] (which needs a source-program layout)
   does not. *)

module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Ast = Inl_ir.Ast
module Pool = Inl_parallel.Pool

type witness = {
  kind : [ `Write_write | `Read_write ];
  array : string;
  src : string;  (** statement label of the first access *)
  dst : string;
}

type status =
  | Parallel
  | Serial of witness list
  | Unknown of string
      (** the analysis could not decide: resource budget exhausted or an
          execution set that is only representable approximately *)

let satisfiable ?ctx sys =
  match System.normalize sys with None -> false | Some s -> Omega.satisfiable ?ctx s

let kind_to_string = function `Write_write -> "write-write" | `Read_write -> "read-write"

let witness_to_string w =
  Printf.sprintf "%s conflict on %s between %s and %s" (kind_to_string w.kind) w.array w.src
    w.dst

(* Is [prefix] a (non-strict) prefix of [path]? *)
let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | x :: p, y :: q -> x = y && is_prefix p q
  | _ :: _, [] -> false

let analyze ?ctx (prog : Ast.program) : (Ast.path * string * status) list =
  let params = prog.Ast.params in
  let occs = Instances.extract prog in
  let suffix v = if List.mem v params then v else v ^ "!2" in
  (* one task per loop: each accumulates its own witnesses, so results
     are position-for-position identical to the sequential scan *)
  Pool.map
    (fun ((lpath, (l : Ast.loop)) : Ast.path * Ast.loop) ->
      let under =
        List.filter (fun (o : Instances.occurrence) -> is_prefix lpath o.Instances.path) occs
      in
      let witnesses = ref [] in
      let unknown = ref None in
      let note_unknown msg = if !unknown = None then unknown := Some msg in
      let check_pair (o1 : Instances.occurrence) (o2 : Instances.occurrence) =
        let env1 = (List.hd o1.Instances.ctxts).Instances.env
        and env2 = (List.hd o2.Instances.ctxts).Instances.env in
        let refs1 = Instances.refs_of env1 o1.Instances.stmt
        and refs2 = Instances.refs_of env2 o2.Instances.stmt in
        (* shared loops strictly enclosing this one run at equal values;
           this loop's variable differs (either direction). *)
        let outer_eq =
          List.filter_map
            (fun (p, v) ->
              if List.length p < List.length lpath && is_prefix p lpath then
                Some (Constr.eq2 (Linexpr.var v) (Linexpr.var (suffix v)))
              else None)
            o1.Instances.loops
        in
        let carried dir =
          match dir with
          | `Lt -> Constr.lt2 (Linexpr.var l.Ast.var) (Linexpr.var (suffix l.Ast.var))
          | `Gt -> Constr.gt2 (Linexpr.var l.Ast.var) (Linexpr.var (suffix l.Ast.var))
        in
        List.iter
          (fun (w1, a1, idx1) ->
            if w1 then
              List.iter
                (fun (w2, a2, idx2) ->
                  if a2 = a1 && List.length idx2 = List.length idx1 then
                    let kind = if w2 then `Write_write else `Read_write in
                    let already =
                      List.exists
                        (fun w ->
                          w.kind = kind && w.array = a1
                          && w.src = o1.Instances.stmt.Ast.label
                          && w.dst = o2.Instances.stmt.Ast.label)
                        !witnesses
                    in
                    if not already then
                      let subs =
                        List.map2
                          (fun r1 r2 ->
                            Instances.raff_eq_constr r1 (Instances.raff_rename suffix r2))
                          idx1 idx2
                      in
                      let conflict (c1 : Instances.ctxt) (c2 : Instances.ctxt) dir =
                        let sys =
                          (carried dir :: outer_eq)
                          @ subs @ c1.Instances.sys
                          @ System.rename suffix c2.Instances.sys
                        in
                        match satisfiable ?ctx sys with
                        | true ->
                            if c1.Instances.exact && c2.Instances.exact then (
                              let w =
                                {
                                  kind;
                                  array = a1;
                                  src = o1.Instances.stmt.Ast.label;
                                  dst = o2.Instances.stmt.Ast.label;
                                }
                              in
                              (* both directions / several contexts can
                                 witness the same conflict — report once *)
                              if not (List.mem w !witnesses) then witnesses := w :: !witnesses)
                            else
                              note_unknown
                                (Printf.sprintf
                                   "possible %s conflict on %s involves an approximated \
                                    execution set"
                                   (kind_to_string kind) a1)
                        | false -> ()
                        | exception Omega.Blowup _ ->
                            note_unknown "resource budget exhausted"
                      in
                      List.iter
                        (fun c1 ->
                          List.iter
                            (fun c2 ->
                              conflict c1 c2 `Lt;
                              conflict c1 c2 `Gt)
                            o2.Instances.ctxts)
                        o1.Instances.ctxts)
                refs2)
          refs1
      in
      List.iter (fun o1 -> List.iter (fun o2 -> check_pair o1 o2) under) under;
      let status =
        match (!witnesses, !unknown) with
        | [], None -> Parallel
        | [], Some msg -> Unknown msg
        | ws, _ -> Serial (List.rev ws)
      in
      (lpath, l.Ast.var, status))
    (Instances.loops_of prog)
