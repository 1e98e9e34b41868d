(* Well-formedness lint over any program AST.  Every finding is a typed
   diagnostic with a stable code:

     V001  dead loop (its body can never execute)           warning
     V002  unreachable guard (context refutes it)           warning
     V003  singular loop (at most one iteration per entry)  info
     V004  guard implied by enclosing bounds                 info
     V005  out-of-scope variable use                         error
     V006  inexact let division not covered by a guard       error
     V007  malformed program (duplicate label, bad step...)  error
     V900  check skipped: resource budget exhausted          warning

   All solver calls run under the ambient Omega budget; a Blowup never
   escapes — the affected check degrades to one V900. *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag

let vdiag sev code fmt =
  Format.kasprintf (fun m -> Diag.make ~code ~severity:sev ~phase:Diag.Verify m) fmt

let pp_guards fmt gs =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.fprintf f " and ")
    Inl_ir.Pp.pp_guard fmt gs

let unknown what = vdiag Diag.Warning "V900" "check skipped (resource budget exhausted): %s" what

(* Largest divisor for which we enumerate residue branches when testing
   divisibility facts; beyond it the check reports V900. *)
let max_modulus = 64

(* Run a solver-backed check, degrading budget blowups to V900. *)
let budgeted ~what (diags : Diag.t list ref) (f : unit -> Diag.t list) =
  match f () with
  | ds -> diags := List.rev_append ds !diags
  | exception Omega.Blowup _ -> diags := unknown what :: !diags

let satisfiable sys = match System.normalize sys with None -> false | Some s -> Omega.satisfiable s

(* d | e (a rational affine num/den) holds everywhere in sys?
   Equivalent to: no residue 1..d-1 is reachable.  [None] when d is too
   large to enumerate. *)
let always_divides sys (r : Instances.raff) (d : Mpz.t) : bool option =
  match Mpz.to_int_opt d with
  | Some di when di <= max_modulus ->
      let m = Mpz.mul r.Instances.den d in
      let rec residues i =
        if i >= di then true
        else
          let w = Omega.fresh_var () in
          (* num ≡ i*den (mod den*d), i.e. num - i*den - m*w = 0 *)
          let c =
            Constr.eq
              (Linexpr.sub
                 (Linexpr.sub r.Instances.num
                    (Linexpr.const (Mpz.mul (Mpz.of_int i) r.Instances.den)))
                 (Linexpr.term m w))
          in
          if satisfiable (c :: sys) then false else residues (i + 1)
      in
      Some (residues 1)
  | _ -> None

let guard_redundant sys env (g : Ast.guard) : bool option =
  match g with
  | Ast.Gcmp (op, e) ->
      let r = Instances.subst_env env e in
      let c = match op with `Ge -> Constr.ge r.Instances.num | `Eq -> Constr.eq r.Instances.num in
      Some (Omega.implies sys c)
  | Ast.Gdiv (d, e) -> always_divides sys (Instances.subst_env env e) d

let check_structure (prog : Ast.program) : Diag.t list =
  match Ast.validate prog with
  | () -> []
  | exception Ast.Invalid msg ->
      let scope_words = [ "neither an enclosing"; "unbound"; "shadows" ] in
      let is_scope =
        List.exists
          (fun w ->
            let rec find i =
              i + String.length w <= String.length msg && (String.sub msg i (String.length w) = w || find (i + 1))
            in
            find 0)
          scope_words
      in
      if is_scope then [ vdiag Diag.Error "V005" "%s" msg ]
      else [ vdiag Diag.Error "V007" "%s" msg ]

let run (prog : Ast.program) : Diag.t list =
  match check_structure prog with
  | _ :: _ as structural -> structural (* contexts are meaningless on malformed input *)
  | [] ->
      let diags = ref [] in
      (* live = at least one incoming disjunct satisfiable; dead code is
         reported once, at the node that kills it. *)
      let rec go ctxts ~live node =
        match node with
        | Ast.Stmt _ -> ()
        | Ast.If (gs, body) ->
            let inner = List.map (fun c -> Instances.enter_if c gs) ctxts in
            let live' = ref live in
            if live then
              budgeted ~what:"guard reachability" diags (fun () ->
                  if
                    not
                      (List.exists (fun (c : Instances.ctxt) -> satisfiable c.Instances.sys) inner)
                  then (
                    live' := false;
                    [ vdiag Diag.Warning "V002" "guard is unreachable: %a" pp_guards gs ])
                  else
                    List.concat_map
                      (fun g ->
                        let redundant =
                          List.for_all
                            (fun (c : Instances.ctxt) ->
                              satisfiable c.Instances.sys = false
                              || guard_redundant c.Instances.sys c.Instances.env g = Some true)
                            ctxts
                        in
                        if redundant then
                          [
                            vdiag Diag.Info "V004" "guard is implied by enclosing bounds: %a"
                              pp_guards [ g ];
                          ]
                        else [])
                      gs);
            List.iter (go inner ~live:!live') body
        | Ast.Let (v, t, body) ->
            let r = Instances.subst_env (List.hd ctxts).Instances.env t.Ast.num in
            let d = Mpz.mul r.Instances.den t.Ast.den in
            if live && not (Mpz.is_one d) then
              budgeted ~what:(Printf.sprintf "divisibility of let %s" v) diags (fun () ->
                  let guarded =
                    List.for_all
                      (fun (c : Instances.ctxt) ->
                        satisfiable c.Instances.sys = false
                        ||
                        let rr = Instances.subst_env c.Instances.env t.Ast.num in
                        always_divides c.Instances.sys rr t.Ast.den = Some true)
                      ctxts
                  in
                  if guarded then []
                  else
                    [
                      vdiag Diag.Error "V006"
                        "let %s divides by %a but no enclosing guard ensures divisibility \
                         (execution would fault)"
                        v Mpz.pp t.Ast.den;
                    ]);
            List.iter (go (List.map (fun c -> Instances.enter_let c v t) ctxts) ~live) body
        | Ast.Loop l ->
            let inner = List.concat_map (fun c -> Instances.enter_loop c l) ctxts in
            let live' = ref live in
            if live then
              budgeted ~what:(Printf.sprintf "bounds of loop %s" l.Ast.var) diags (fun () ->
                  if
                    not
                      (List.exists (fun (c : Instances.ctxt) -> satisfiable c.Instances.sys) inner)
                  then (
                    live' := false;
                    [ vdiag Diag.Warning "V001" "loop %s never executes (empty bounds)" l.Ast.var ])
                  else if singular ctxts l then
                    [
                      vdiag Diag.Info "V003" "loop %s runs at most one iteration per entry"
                        l.Ast.var;
                    ]
                  else []);
            List.iter (go inner ~live:!live') l.Ast.body
      (* A simple (natural-bound) loop is singular when two distinct
         in-bounds values of its variable cannot coexist under the same
         enclosing context. *)
      and singular ctxts (l : Ast.loop) =
        l.Ast.lower.Ast.combine = `Max
        && l.Ast.upper.Ast.combine = `Min
        && Mpz.is_one l.Ast.step
        && List.for_all
             (fun (c : Instances.ctxt) ->
               let v = l.Ast.var in
               let v' = v ^ "!2" in
               let bounds var =
                 List.map (Instances.lower_constr c.Instances.env var) l.Ast.lower.Ast.terms
                 @ List.map (Instances.upper_constr c.Instances.env var) l.Ast.upper.Ast.terms
               in
               not
                 (satisfiable
                    ((Constr.lt2 (Linexpr.var v) (Linexpr.var v') :: bounds v)
                    @ bounds v' @ c.Instances.sys)))
             ctxts
      in
      List.iter (go [ Instances.initial ] ~live:true) prog.Ast.nest;
      List.rev !diags
