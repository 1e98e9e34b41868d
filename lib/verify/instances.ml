(* Execution-set extraction: turn any program AST — including code-
   generation output with strided loops, covering bounds, guards and
   exact-quotient lets — into, per statement occurrence, a disjunction
   of affine systems whose integer solutions are exactly the dynamic
   instances the program executes.

   Loop variables stay as themselves; [Let]-bound variables are
   eliminated by exact rational substitution (a let [v = e/d] becomes
   the rational affine [e/d] over enclosing loop variables); [Gdiv]
   guards become divisibility witnesses — an equality with a fresh
   existential wildcard in the reserved Omega namespace.  Covering
   (union) bounds are disjunctive, so each such bound forks the context
   into one disjunct per term. *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag
module Smap = Map.Make (String)

(* ---- helpers shared by the verifier's checks ---- *)

let vdiag sev code fmt =
  Format.kasprintf (fun m -> Diag.make ~code ~severity:sev ~phase:Diag.Verify m) fmt

(* Largest divisor for which the checks enumerate residue branches when
   testing divisibility facts; beyond it a check reports V900. *)
let max_modulus = 64

let satisfiable ?ctx sys =
  match System.normalize sys with None -> false | Some s -> Omega.satisfiable ?ctx s

type raff = { num : Linexpr.t; den : Mpz.t }

let raff_of_affine e = { num = e; den = Mpz.one }
let raff_of_var v = raff_of_affine (Linexpr.var v)

let raff_normalize { num; den } =
  let g =
    Linexpr.fold (fun _ c acc -> Mpz.gcd (Mpz.abs c) acc) num
      (Mpz.gcd (Mpz.abs (Linexpr.constant num)) den)
  in
  if Mpz.is_zero g || Mpz.is_one g then { num; den }
  else
    {
      num = Linexpr.map_coeffs (fun c -> fst (Mpz.divmod c g)) num;
      den = fst (Mpz.divmod den g);
    }

let raff_rename f { num; den } = { num = Linexpr.rename f num; den }

(* a = b over the integers, with denominators cleared. *)
let raff_eq_constr a b = Constr.eq2 (Linexpr.scale b.den a.num) (Linexpr.scale a.den b.num)

type ctxt = {
  sys : System.t;  (** over loop variables, parameters and wildcards *)
  env : raff Smap.t;  (** [Let]-bound variables, resolved to loop variables *)
  exact : bool;
      (** [false] when some construct (a strided loop whose start is not
          a single integral affine) could only be over-approximated *)
}

let initial = { sys = System.empty; env = Smap.empty; exact = true }

(* Substitute the let-environment into an affine expression, giving a
   rational affine over loop variables and parameters only. *)
let subst_env (env : raff Smap.t) (e : Linexpr.t) : raff =
  let bound = List.filter (fun v -> Smap.mem v env) (Linexpr.vars e) in
  let r =
    List.fold_left
      (fun acc v ->
        let { num = nv; den = dv } = Smap.find v env in
        let a = Linexpr.coeff acc.num v in
        let rest = Linexpr.sub acc.num (Linexpr.term a v) in
        { num = Linexpr.add (Linexpr.scale dv rest) (Linexpr.scale a nv); den = Mpz.mul acc.den dv })
      (raff_of_affine e) bound
  in
  raff_normalize r

(* v >= num/(den * t.den)  ⇔  den * t.den * v >= num  (integers, den >= 1) *)
let lower_constr env v (t : Ast.bterm) =
  let r = subst_env env t.Ast.num in
  Constr.ge2 (Linexpr.term (Mpz.mul r.den t.Ast.den) v) r.num

let upper_constr env v (t : Ast.bterm) =
  let r = subst_env env t.Ast.num in
  Constr.le2 (Linexpr.term (Mpz.mul r.den t.Ast.den) v) r.num

(* One constraint set per disjunct: a natural bound (max lower / min
   upper) is a conjunction of its terms, a covering bound the
   disjunction. *)
let bound_branches env v ~which (b : Ast.bound) : Constr.t list list =
  let mk = match which with `Lower -> lower_constr | `Upper -> upper_constr in
  let natural = match which with `Lower -> `Max | `Upper -> `Min in
  if b.Ast.combine = natural then [ List.map (mk env v) b.Ast.terms ]
  else List.map (fun t -> [ mk env v t ]) b.Ast.terms

let guard_constrs env (g : Ast.guard) : Constr.t list =
  match g with
  | Ast.Gcmp (`Ge, e) -> [ Constr.ge (subst_env env e).num ]
  | Ast.Gcmp (`Eq, e) -> [ Constr.eq (subst_env env e).num ]
  | Ast.Gdiv (m, e) ->
      (* m | e/d  ⇔  d*m | e's numerator (e integral at execution) *)
      let r = subst_env env e in
      let w = Omega.fresh_var () in
      [ Constr.eq2 r.num (Linexpr.term (Mpz.mul r.den m) w) ]

let enter_if ctxt guards =
  { ctxt with sys = List.concat_map (guard_constrs ctxt.env) guards @ ctxt.sys }

let enter_let ctxt v (t : Ast.bterm) =
  let r = subst_env ctxt.env t.Ast.num in
  let binding = raff_normalize { num = r.num; den = Mpz.mul r.den t.Ast.den } in
  { ctxt with env = Smap.add v binding ctxt.env }

(* Contexts holding inside the loop body.  A unit-step loop contributes
   its bound constraints; a strided loop additionally constrains the
   variable to the arithmetic progression from the start value, which is
   affine-encodable only when the lower bound is a single integral term
   (the only shape the code generator emits) — otherwise the stride is
   dropped and the context marked inexact (a superset). *)
let enter_loop ctxt (l : Ast.loop) : ctxt list =
  let v = l.Ast.var in
  let lowers = bound_branches ctxt.env v ~which:`Lower l.Ast.lower in
  let uppers = bound_branches ctxt.env v ~which:`Upper l.Ast.upper in
  let stride, exact =
    if Mpz.is_one l.Ast.step then ([], ctxt.exact)
    else
      match l.Ast.lower.Ast.terms with
      | [ t ] when l.Ast.lower.Ast.combine = `Max ->
          let r = subst_env ctxt.env t.Ast.num in
          if Mpz.is_one (Mpz.mul r.den t.Ast.den) then
            let w = Omega.fresh_var () in
            (* v - lo = step * w *)
            ( [ Constr.eq2 (Linexpr.sub (Linexpr.var v) r.num) (Linexpr.term l.Ast.step w) ],
              ctxt.exact )
          else ([], false)
      | _ -> ([], false)
  in
  List.concat_map
    (fun lo -> List.map (fun up -> { ctxt with sys = stride @ lo @ up @ ctxt.sys; exact }) uppers)
    lowers

type occurrence = {
  path : Ast.path;
  stmt : Ast.stmt;
  loops : (Ast.path * string) list;  (** enclosing loops, outermost first *)
  ctxts : ctxt list;  (** disjuncts; their union is the execution set *)
}

let extract (prog : Ast.program) : occurrence list =
  let acc = ref [] in
  let rec go path loops ctxts node =
    match node with
    | Ast.Stmt s -> acc := { path = List.rev path; stmt = s; loops = List.rev loops; ctxts } :: !acc
    | Ast.If (gs, body) ->
        let ctxts = List.map (fun c -> enter_if c gs) ctxts in
        go_body path loops ctxts body
    | Ast.Let (v, t, body) ->
        let ctxts = List.map (fun c -> enter_let c v t) ctxts in
        go_body path loops ctxts body
    | Ast.Loop l ->
        let ctxts = List.concat_map (fun c -> enter_loop c l) ctxts in
        go_body path ((List.rev path, l.Ast.var) :: loops) ctxts l.Ast.body
  and go_body path loops ctxts body =
    List.iteri (fun i n -> go (i :: path) loops ctxts n) body
  in
  List.iteri (fun i n -> go [ i ] [] [ initial ] n) prog.Ast.nest;
  List.rev !acc

let loops_of (prog : Ast.program) : (Ast.path * Ast.loop) list =
  let acc = ref [] in
  let rec go path node =
    match node with
    | Ast.Stmt _ -> ()
    | Ast.If (_, body) | Ast.Let (_, _, body) -> go_body path body
    | Ast.Loop l ->
        acc := (List.rev path, l) :: !acc;
        go_body path l.Ast.body
  and go_body path body = List.iteri (fun i n -> go (i :: path) n) body in
  List.iteri (fun i n -> go [ i ] n) prog.Ast.nest;
  List.rev !acc

(* Array references of a statement with their subscripts resolved
   through the let-environment.  The boolean marks the write. *)
let refs_of (env : raff Smap.t) (s : Ast.stmt) : (bool * string * raff list) list =
  let of_aref w (r : Ast.aref) = (w, r.Ast.array, List.map (subst_env env) r.Ast.index) in
  let rec reads acc = function
    | Ast.Eref r -> of_aref false r :: acc
    | Ast.Econst _ | Ast.Evar _ -> acc
    | Ast.Ebin (_, a, b) -> reads (reads acc a) b
    | Ast.Ecall (_, args) -> List.fold_left reads acc args
  in
  of_aref true s.Ast.lhs :: List.rev (reads [] s.Ast.rhs)

