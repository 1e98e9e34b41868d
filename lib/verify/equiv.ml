(* Translation validation: prove that a (generated) program executes
   exactly the statement instances of a source program, in an order
   that preserves every source dependence.

   The proof obligations, each decided by ILP emptiness under the
   ambient resource budget:

     V101  some source instance is never executed (dropped)
     V102  the program executes instances outside the source set
     V103  some source instance is executed more than once
     V104  a source dependence is executed out of order
     V105  a statement computes a different expression
     V106  the statement sets differ
     V107  (warning) a statement with a provably empty execution set
           was dropped — instance sets are trivially preserved

   Together V101-V103 + V105 say each statement performs exactly its
   source computations once, and V104 says conflicting accesses keep
   their relative order — which is semantic equality for loop programs
   (any execution order of the same instances that preserves dependences
   computes the same values).

   The bridge between the two programs is a statement-wise affine
   correspondence sigma mapping each source iterator to a rational
   affine form over the generated program's loop variables.  It is not
   trusted input: it is {e inferred} — from surviving [let] bindings
   named after source iterators and from equating source and generated
   array subscripts position-wise (a small rational linear solve) — and
   every check then holds or fails independently of how sigma was
   found: if some affine sigma makes instance sets equal, bodies match
   and dependences ordered, the programs are equivalent; if none exists
   the subscript equations are inconsistent and V105 fires.  An
   underdetermined sigma degrades to V900 (unknown), never to a silent
   pass. *)

module Mpz = Inl_num.Mpz
module Q = Inl_num.Q
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Diag = Inl_diag.Diag
module Smap = Instances.Smap
module Pool = Inl_parallel.Pool

let vdiag sev code fmt =
  Format.kasprintf (fun m -> Diag.make ~code ~severity:sev ~phase:Diag.Verify m) fmt

(* The check cannot be decided within our means (residue enumeration or
   branch caps exceeded, unexpected wildcard shape); reported as V900. *)
exception Unknown of string

let max_modulus = 64
let max_branches = 2048

let satisfiable ?ctx sys =
  match System.normalize sys with None -> false | Some s -> Omega.satisfiable ?ctx s

(* Variable renamer that leaves parameters (shared between the two
   programs) untouched. *)
let suffix_nonparams ~params sfx v = if List.mem v params then v else v ^ sfx

(* ---------- rational affine helpers ---------- *)

let raff_sub (a : Instances.raff) (b : Instances.raff) : Instances.raff =
  Instances.raff_normalize
    {
      Instances.num =
        Linexpr.sub
          (Linexpr.scale b.Instances.den a.Instances.num)
          (Linexpr.scale a.Instances.den b.Instances.num);
      den = Mpz.mul a.Instances.den b.Instances.den;
    }

(* ---------- statement-body lockstep walk ---------- *)

let rec affine_of_expr (e : Ast.expr) : Linexpr.t option =
  match e with
  | Ast.Evar v -> Some (Linexpr.var v)
  | Ast.Econst f ->
      if Float.is_integer f && Float.abs f < 1e15 then Some (Linexpr.of_int (int_of_float f))
      else None
  | Ast.Ebin (Ast.Add, a, b) -> combine Linexpr.add a b
  | Ast.Ebin (Ast.Sub, a, b) -> combine Linexpr.sub a b
  | Ast.Ebin (Ast.Mul, a, b) -> (
      match (affine_of_expr a, affine_of_expr b) with
      | Some x, Some y when Linexpr.is_constant x -> Some (Linexpr.scale (Linexpr.constant x) y)
      | Some x, Some y when Linexpr.is_constant y -> Some (Linexpr.scale (Linexpr.constant y) x)
      | _ -> None)
  | Ast.Ebin (Ast.Div, _, _) | Ast.Eref _ | Ast.Ecall _ -> None

and combine op a b =
  match (affine_of_expr a, affine_of_expr b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(* Walk source and generated expressions in lockstep, collecting
   [source value = generated value] equations for affine positions and
   requiring identical structure elsewhere. *)
let rec lockstep ~senv ~genv (a : Ast.expr) (b : Ast.expr) acc :
    ((Instances.raff * Instances.raff) list, string) result =
  let ( let* ) = Result.bind in
  let mismatch () =
    Error (Format.asprintf "%a differs from %a" (Pp.pp_expr ~ctx:0) a (Pp.pp_expr ~ctx:0) b)
  in
  match (affine_of_expr a, affine_of_expr b) with
  | Some s, Some g -> Ok ((Instances.subst_env senv s, Instances.subst_env genv g) :: acc)
  | _ -> (
      match (a, b) with
      | Ast.Eref ra, Ast.Eref rb
        when ra.Ast.array = rb.Ast.array
             && List.length ra.Ast.index = List.length rb.Ast.index ->
          Ok
            (List.fold_left2
               (fun acc sa gb -> (Instances.subst_env senv sa, Instances.subst_env genv gb) :: acc)
               acc ra.Ast.index rb.Ast.index)
      | Ast.Econst x, Ast.Econst y when Float.equal x y -> Ok acc
      | Ast.Ebin (o1, a1, b1), Ast.Ebin (o2, a2, b2) when o1 = o2 ->
          let* acc = lockstep ~senv ~genv a1 a2 acc in
          lockstep ~senv ~genv b1 b2 acc
      | Ast.Ecall (f, xs), Ast.Ecall (g, ys) when f = g && List.length xs = List.length ys ->
          List.fold_left2
            (fun acc x y ->
              let* acc = acc in
              lockstep ~senv ~genv x y acc)
            (Ok acc) xs ys
      | _ -> mismatch ())

let stmt_equations ~senv ~genv (s : Ast.stmt) (g : Ast.stmt) =
  lockstep ~senv ~genv (Ast.Eref s.Ast.lhs) (Ast.Eref g.Ast.lhs) []
  |> Result.map (fun acc -> lockstep ~senv ~genv s.Ast.rhs g.Ast.rhs acc)
  |> Result.join

(* ---------- rational linear solve for sigma ---------- *)

(* Gauss-Jordan over Q on an augmented matrix: [n] unknown columns
   followed by [c] right-hand-side columns. *)
let solve_q (rows : Q.t array list) ~(n : int) ~(c : int) :
    [ `Inconsistent | `Underdetermined of int list | `Solution of Q.t array array ] =
  let rows = Array.of_list (List.map Array.copy rows) in
  let m = Array.length rows in
  let pivot_of = Array.make n (-1) in
  let rank = ref 0 in
  for col = 0 to n - 1 do
    if !rank < m then begin
      let p = ref (-1) in
      for i = !rank to m - 1 do
        if !p < 0 && not (Q.is_zero rows.(i).(col)) then p := i
      done;
      if !p >= 0 then begin
        let tmp = rows.(!rank) in
        rows.(!rank) <- rows.(!p);
        rows.(!p) <- tmp;
        let inv = Q.inv rows.(!rank).(col) in
        Array.iteri (fun j x -> rows.(!rank).(j) <- Q.mul inv x) rows.(!rank);
        for i = 0 to m - 1 do
          if i <> !rank && not (Q.is_zero rows.(i).(col)) then begin
            let f = rows.(i).(col) in
            for j = col to n + c - 1 do
              rows.(i).(j) <- Q.sub rows.(i).(j) (Q.mul f rows.(!rank).(j))
            done;
            rows.(i).(col) <- Q.zero
          end
        done;
        pivot_of.(col) <- !rank;
        incr rank
      end
    end
  done;
  let inconsistent = ref false in
  for i = !rank to m - 1 do
    for j = n to n + c - 1 do
      if not (Q.is_zero rows.(i).(j)) then inconsistent := true
    done
  done;
  if !inconsistent then `Inconsistent
  else
    let free = List.filter (fun k -> pivot_of.(k) < 0) (List.init n (fun k -> k)) in
    if free <> [] then `Underdetermined free
    else
      `Solution
        (Array.init n (fun k -> Array.init c (fun j -> rows.(pivot_of.(k)).(n + j))))

(* ---------- correspondence inference ---------- *)

type sigma = Instances.raff Smap.t

(* Coordinates of the right-hand sides: generated loop variables and
   parameters, plus the constant. *)
let raff_coord (r : Instances.raff) = function
  | `Const -> Q.make (Linexpr.constant r.Instances.num) r.Instances.den
  | `Var v -> Q.make (Linexpr.coeff r.Instances.num v) r.Instances.den

let raff_of_qrow coords (q : Q.t array) : Instances.raff =
  let den = Array.fold_left (fun acc x -> Mpz.lcm acc (Q.den x)) Mpz.one q in
  let num = ref Linexpr.zero in
  List.iteri
    (fun j coord ->
      let scaled = Mpz.mul (Q.num q.(j)) (fst (Mpz.divmod den (Q.den q.(j)))) in
      num :=
        Linexpr.add !num
          (match coord with
          | `Const -> Linexpr.const scaled
          | `Var v -> Linexpr.term scaled v))
    coords;
  Instances.raff_normalize { Instances.num = !num; den }

(* Infer sigma for one statement: source iterator |-> rational affine
   over the generated program's variables. *)
let infer_sigma ~(src : Instances.occurrence) ~(gen : Instances.occurrence) :
    (sigma, Diag.t) result =
  let label = src.Instances.stmt.Ast.label in
  let senv = (List.hd src.Instances.ctxts).Instances.env in
  let genv = (List.hd gen.Instances.ctxts).Instances.env in
  let iters = List.map snd src.Instances.loops in
  match stmt_equations ~senv ~genv src.Instances.stmt gen.Instances.stmt with
  | Error why ->
      Error (vdiag Diag.Error "V105" "statement %s computes a different expression: %s" label why)
  | Ok eqs ->
      let pinned =
        List.filter_map
          (fun v ->
            match Smap.find_opt v genv with
            | Some r -> Some (Instances.raff_of_var v, r)
            | None ->
                if List.exists (fun (_, gv) -> gv = v) gen.Instances.loops then
                  Some (Instances.raff_of_var v, Instances.raff_of_var v)
                else None)
          iters
      in
      let eqs = pinned @ eqs in
      let n = List.length iters in
      if n = 0 then Ok Smap.empty
      else
        (* Split each equation s = g into unknown part (coefficients of
           the iterators in s) and right-hand side g - (rest of s). *)
        let split (s : Instances.raff) (g : Instances.raff) =
          let coeffs =
            List.map (fun v -> Q.make (Linexpr.coeff s.Instances.num v) s.Instances.den) iters
          in
          let rest =
            List.fold_left
              (fun e v -> Linexpr.sub e (Linexpr.term (Linexpr.coeff e v) v))
              s.Instances.num iters
          in
          (coeffs, raff_sub g { Instances.num = rest; den = s.Instances.den })
        in
        let split_eqs = List.map (fun (s, g) -> split s g) eqs in
        let coords =
          `Const
          :: List.sort_uniq compare
               (List.concat_map
                  (fun (_, r) -> List.map (fun v -> `Var v) (Linexpr.vars r.Instances.num))
                  split_eqs)
        in
        let c = List.length coords in
        let rows =
          List.map
            (fun (coeffs, rhs) ->
              Array.of_list (coeffs @ List.map (raff_coord rhs) coords))
            split_eqs
        in
        if rows = [] then
          Error
            (vdiag Diag.Warning "V900"
               "cannot infer the iterator correspondence for statement %s (no subscript \
                equations)"
               label)
        else (
          match solve_q rows ~n ~c with
          | `Inconsistent ->
              Error
                (vdiag Diag.Error "V105"
                   "statement %s: source and generated subscripts admit no affine \
                    correspondence"
                   label)
          | `Underdetermined ks ->
              Error
                (vdiag Diag.Warning "V900"
                   "cannot infer the correspondence for iterator%s %s of statement %s"
                   (if List.length ks > 1 then "s" else "")
                   (String.concat ", " (List.map (List.nth iters) ks))
                   label)
          | `Solution sol ->
              Ok
                (List.fold_left2
                   (fun acc v row -> Smap.add v (raff_of_qrow coords row) acc)
                   Smap.empty iters (Array.to_list sol)))

(* ---------- symbolic set difference ---------- *)

(* Negation alternatives of one conjunctive system D: the union of the
   alternatives' solution sets is the complement of D.  Divisibility is
   the only permitted use of wildcards: an equality in which a wildcard
   w appears with coefficient m, and nowhere else in D, denotes
   m | (the rest); its complement enumerates the nonzero residues. *)
let negation_alternatives (d : System.t) : Constr.t list list =
  let wild_occurrences v =
    List.length (List.filter (fun c -> List.mem v (Constr.vars c)) d)
  in
  let neg_constraint c =
    let e = Constr.expr c in
    let wilds = List.filter Omega.is_wildcard (Constr.vars c) in
    match (c, wilds) with
    | Constr.Ge _, [] -> [ [ Constr.ge (Linexpr.add_const (Linexpr.neg e) Mpz.minus_one) ] ]
    | Constr.Ge _, _ :: _ -> raise (Unknown "wildcard inside an inequality")
    | Constr.Eq _, [] ->
        [
          [ Constr.ge (Linexpr.add_const e Mpz.minus_one) ];
          [ Constr.ge (Linexpr.add_const (Linexpr.neg e) Mpz.minus_one) ];
        ]
    | Constr.Eq _, [ w ] ->
        if wild_occurrences w > 1 then raise (Unknown "wildcard shared between constraints");
        let m = Mpz.abs (Linexpr.coeff e w) in
        let rest = Linexpr.sub e (Linexpr.term (Linexpr.coeff e w) w) in
        (match Mpz.to_int_opt m with
        | Some mi when mi <= max_modulus ->
            List.init (mi - 1) (fun r ->
                let w' = Omega.fresh_var () in
                [
                  Constr.eq
                    (Linexpr.sub
                       (Linexpr.add_const rest (Mpz.neg (Mpz.of_int (r + 1))))
                       (Linexpr.term m w'));
                ])
        | _ -> raise (Unknown "divisibility modulus too large to enumerate"))
    | Constr.Eq _, _ :: _ :: _ -> raise (Unknown "equality with several wildcards")
  in
  List.concat_map neg_constraint d

(* Is (union of A) minus (union of B) non-empty? *)
let diff_nonempty ?ctx (a : System.t list) (b : System.t list) : bool =
  let branches = ref (List.filter (satisfiable ?ctx) a) in
  List.iter
    (fun d ->
      let alts = negation_alternatives d in
      let next =
        List.concat_map
          (fun br ->
            List.filter_map
              (fun alt ->
                let s = alt @ br in
                if satisfiable ?ctx s then Some s else None)
              alts)
          !branches
      in
      if List.length next > max_branches then raise (Unknown "set difference: too many branches");
      branches := next)
    b;
  !branches <> []

(* ---------- instance-set preservation ---------- *)

(* Rename the generated program's own variables out of the way of the
   source iterator namespace. *)
let gen_suffix = "!gen"

(* Executed source-instance sets of one generated context, as systems
   over the source iterators and parameters. *)
let coverage ?ctx ~params ~(iters : string list) (sigma : sigma) (c : Instances.ctxt) :
    System.t list =
  let ren = suffix_nonparams ~params gen_suffix in
  let sys = System.rename ren c.Instances.sys in
  let link =
    List.map
      (fun v ->
        Instances.raff_eq_constr (Instances.raff_of_var v)
          (Instances.raff_rename ren (Smap.find v sigma)))
      iters
  in
  let keep x = List.mem x iters || List.mem x params in
  Omega.project ?ctx (link @ sys) ~keep

(* Branches under which instance A (variables renamed by [ra]) executes
   strictly before instance B ([rb]) over their common loops; [tie]
   additionally includes the all-equal branch (used for syntactic order
   and the simultaneous case). *)
let order_branches (common : string list) ~ra ~rb ~tie : Constr.t list list =
  let eq v = Constr.eq2 (Linexpr.var (ra v)) (Linexpr.var (rb v)) in
  let rec go prefix = function
    | [] -> if tie then [ List.rev prefix ] else []
    | v :: rest ->
        (Constr.lt2 (Linexpr.var (ra v)) (Linexpr.var (rb v)) :: List.rev prefix)
        :: go (eq v :: prefix) rest
  in
  go [] common

let common_loops (l1 : (Ast.path * string) list) (l2 : (Ast.path * string) list) : string list =
  let rec go = function
    | (p1, v1) :: t1, (p2, _) :: t2 when p1 = p2 -> v1 :: go (t1, t2)
    | _ -> []
  in
  go (l1, l2)

(* ---------- the checker ---------- *)

type pairing = {
  src : Instances.occurrence;
  gen : Instances.occurrence;
  sigma : (sigma, Diag.t) result;
  exact : bool;  (** both execution sets are represented exactly *)
}

let budgeted ~what add (f : unit -> unit) =
  try f () with
  | Omega.Blowup _ ->
      add (vdiag Diag.Warning "V900" "check skipped (resource budget exhausted): %s" what)
  | Unknown why -> add (vdiag Diag.Warning "V900" "check skipped (%s): %s" why what)

let check_sets ?ctx ~params add (p : pairing) =
  let label = p.src.Instances.stmt.Ast.label in
  match p.sigma with
  | Error d -> add d
  | Ok _ when not p.exact -> () (* already reported as V900 by [check] *)
  | Ok sigma ->
      let iters = List.map snd p.src.Instances.loops in
      let src_sets = List.map (fun (c : Instances.ctxt) -> c.Instances.sys) p.src.Instances.ctxts in
      budgeted ~what:(Printf.sprintf "instance-set preservation for %s" label) add (fun () ->
          let cover = List.concat_map (coverage ?ctx ~params ~iters sigma) p.gen.Instances.ctxts in
          if diff_nonempty ?ctx src_sets cover then
            add
              (vdiag Diag.Error "V101"
                 "statement %s: some source instances are never executed (dropped iterations)"
                 label);
          if diff_nonempty ?ctx cover src_sets then
            add
              (vdiag Diag.Error "V102"
                 "statement %s: instances outside the source iteration set are executed (extra \
                  iterations)"
                 label));
      budgeted ~what:(Printf.sprintf "injectivity for %s" label) add (fun () ->
          let ren2 = suffix_nonparams ~params "!2" in
          let gen_loop_vars = List.map snd p.gen.Instances.loops in
          let distinct =
            order_branches gen_loop_vars ~ra:(fun v -> v) ~rb:ren2 ~tie:false
            @ order_branches gen_loop_vars ~ra:ren2 ~rb:(fun v -> v) ~tie:false
          in
          let same_instance =
            List.map
              (fun v ->
                Instances.raff_eq_constr (Smap.find v sigma)
                  (Instances.raff_rename ren2 (Smap.find v sigma)))
              iters
          in
          let dup =
            List.exists
              (fun (c1 : Instances.ctxt) ->
                List.exists
                  (fun (c2 : Instances.ctxt) ->
                    let base =
                      same_instance @ c1.Instances.sys @ System.rename ren2 c2.Instances.sys
                    in
                    List.exists (fun branch -> satisfiable ?ctx (branch @ base)) distinct)
                  p.gen.Instances.ctxts)
              p.gen.Instances.ctxts
          in
          if dup then
            add
              (vdiag Diag.Error "V103"
                 "statement %s: some source instance is executed more than once (duplicated \
                  iterations)"
                 label))

(* Every pair of conflicting source accesses executed in source order
   must be executed in the same order by the generated program.  One task
   per ordered pairing pair: statement labels are unique per pairing, so
   the (l1, l2, array) de-duplication keys of different tasks are
   disjoint and the [reported] state can stay task-local. *)
let check_pair_order ?ctx ~params (p1, p2) : Diag.t list =
  let local = ref [] in
  let add d = local := d :: !local in
  let reported = ref [] in
  (match (p1.sigma, p2.sigma) with
      | Ok sigma1, Ok sigma2 when p1.exact && p2.exact ->
          let l1 = p1.src.Instances.stmt.Ast.label and l2 = p2.src.Instances.stmt.Ast.label in
          let senv1 = (List.hd p1.src.Instances.ctxts).Instances.env
          and senv2 = (List.hd p2.src.Instances.ctxts).Instances.env in
          let refs1 = Instances.refs_of senv1 p1.src.Instances.stmt
          and refs2 = Instances.refs_of senv2 p2.src.Instances.stmt in
          let rs = suffix_nonparams ~params "!s"
          and rx = suffix_nonparams ~params "!x"
          and ry = suffix_nonparams ~params "!y" in
          let src_common = common_loops p1.src.Instances.loops p2.src.Instances.loops in
          let src_before =
            order_branches src_common
              ~ra:(fun v -> v)
              ~rb:rs
              ~tie:(Ast.syntactic_compare p1.src.Instances.path p2.src.Instances.path < 0)
          in
          let gen_common = common_loops p1.gen.Instances.loops p2.gen.Instances.loops in
          let gen_violation =
            order_branches gen_common ~ra:ry ~rb:rx
              ~tie:(Ast.syntactic_compare p2.gen.Instances.path p1.gen.Instances.path <= 0)
          in
          let iters1 = List.map snd p1.src.Instances.loops
          and iters2 = List.map snd p2.src.Instances.loops in
          let links1 =
            List.map
              (fun v ->
                Instances.raff_eq_constr
                  (Instances.raff_rename rx (Smap.find v sigma1))
                  (Instances.raff_of_var v))
              iters1
          and links2 =
            List.map
              (fun v ->
                Instances.raff_eq_constr
                  (Instances.raff_rename ry (Smap.find v sigma2))
                  (Instances.raff_of_var (rs v)))
              iters2
          in
          List.iter
            (fun (w1, a1, idx1) ->
              List.iter
                (fun (w2, a2, idx2) ->
                  if
                    (w1 || w2) && a1 = a2
                    && List.length idx1 = List.length idx2
                    && not (List.mem (l1, l2, a1) !reported)
                  then
                    let subs =
                      List.map2
                        (fun r1 r2 -> Instances.raff_eq_constr r1 (Instances.raff_rename rs r2))
                        idx1 idx2
                    in
                    budgeted
                      ~what:
                        (Printf.sprintf "dependence order %s -> %s on %s" l1 l2 a1)
                      add
                      (fun () ->
                        List.iter
                          (fun (sc1 : Instances.ctxt) ->
                            List.iter
                              (fun (sc2 : Instances.ctxt) ->
                                let src_base =
                                  subs @ sc1.Instances.sys @ System.rename rs sc2.Instances.sys
                                in
                                List.iter
                                  (fun before ->
                                    if
                                      (not (List.mem (l1, l2, a1) !reported))
                                      && satisfiable ?ctx (before @ src_base)
                                    then
                                      (* the dependence exists; now look
                                         for an execution order witness
                                         against it *)
                                      let violated =
                                        List.exists
                                          (fun (d1 : Instances.ctxt) ->
                                            List.exists
                                              (fun (d2 : Instances.ctxt) ->
                                                let gsys =
                                                  System.rename rx d1.Instances.sys
                                                  @ System.rename ry d2.Instances.sys
                                                in
                                                List.exists
                                                  (fun viol ->
                                                    satisfiable ?ctx
                                                      (viol @ links1 @ links2 @ gsys
                                                     @ before @ src_base))
                                                  gen_violation)
                                              p2.gen.Instances.ctxts)
                                          p1.gen.Instances.ctxts
                                      in
                                      if violated then begin
                                        reported := (l1, l2, a1) :: !reported;
                                        add
                                          (vdiag Diag.Error "V104"
                                             "dependence from %s to %s on %s is not preserved \
                                              (conflicting accesses reordered)"
                                             l1 l2 a1)
                                      end)
                                  src_before)
                              p2.src.Instances.ctxts)
                          p1.src.Instances.ctxts))
                refs2)
            refs1
  | _ -> () (* sigma failures / inexact sets already reported per statement *));
  List.rev !local

let check_dependence_order ?ctx ~params add (pairings : pairing list) =
  let pairs = List.concat_map (fun p1 -> List.map (fun p2 -> (p1, p2)) pairings) pairings in
  List.iter (List.iter add) (Pool.map (check_pair_order ?ctx ~params) pairs)

let check ?ctx ~(source : Ast.program) (gen : Ast.program) : Diag.t list =
  let params = List.sort_uniq compare (source.Ast.params @ gen.Ast.params) in
  let src_occs = Instances.extract source in
  let gen_occs = Instances.extract gen in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let find_gen l =
    List.find_opt (fun (o : Instances.occurrence) -> o.Instances.stmt.Ast.label = l) gen_occs
  in
  List.iter
    (fun (o : Instances.occurrence) ->
      if find_gen o.Instances.stmt.Ast.label = None then
        (* a statement that provably never executes (empty bounds for
           every parameter value) may legitimately vanish: dropping it
           preserves the (empty) instance set *)
        if
          List.exists (fun (c : Instances.ctxt) -> satisfiable ?ctx c.Instances.sys)
            o.Instances.ctxts
        then
          add
            (vdiag Diag.Error "V106" "statement %s is missing from the transformed program"
               o.Instances.stmt.Ast.label)
        else
          add
            (vdiag Diag.Warning "V107"
               "statement %s has a provably empty execution set and was dropped"
               o.Instances.stmt.Ast.label))
    src_occs;
  List.iter
    (fun (o : Instances.occurrence) ->
      if
        not
          (List.exists
             (fun (s : Instances.occurrence) ->
               s.Instances.stmt.Ast.label = o.Instances.stmt.Ast.label)
             src_occs)
      then
        add
          (vdiag Diag.Error "V106" "statement %s does not occur in the source program"
             o.Instances.stmt.Ast.label))
    gen_occs;
  let pairings =
    List.filter_map
      (fun (src : Instances.occurrence) ->
        match find_gen src.Instances.stmt.Ast.label with
        | None -> None
        | Some gen ->
            let exact =
              List.for_all (fun (c : Instances.ctxt) -> c.Instances.exact) src.Instances.ctxts
              && List.for_all (fun (c : Instances.ctxt) -> c.Instances.exact) gen.Instances.ctxts
            in
            Some { src; gen; sigma = infer_sigma ~src ~gen; exact })
      src_occs
  in
  List.iter
    (fun p ->
      if not p.exact then
        add
          (vdiag Diag.Warning "V900"
             "statement %s: execution set only representable approximately; checks degraded"
             p.src.Instances.stmt.Ast.label))
    pairings;
  (* per-pairing set checks are independent: collect each task's
     findings locally, merge in pairing order *)
  List.iter (List.iter add)
    (Pool.map
       (fun p ->
         let local = ref [] in
         check_sets ?ctx ~params (fun d -> local := d :: !local) p;
         List.rev !local)
       pairings);
  check_dependence_order ?ctx ~params add pairings;
  List.rev !diags
