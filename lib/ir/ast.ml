(* Abstract syntax for imperfectly nested loop programs (Section 2).

   Internal nodes are loops, leaves are atomic assignment statements; the
   left-to-right order of children is sequential execution order.  Source
   programs use unit steps and no guards; code generation (Section 5)
   additionally produces strided loops and guarded bodies (the singular-loop
   conditions of Section 5.5). *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr

type affine = Linexpr.t

(* One term of a loop bound: [num/den] with [den >= 1].  A lower bound
   rounds up, an upper bound rounds down; source programs always have
   [den = 1]. *)
type bterm = { num : affine; den : Mpz.t }

(* A loop bound combines its terms with max or min.  Source programs use
   the natural combiners (a lower bound is a max, an upper bound a min);
   code generation may emit the opposite combiner for a loop shared by
   several statements, whose range must cover the union of the statements'
   ranges (spurious iterations are discarded by per-statement guards). *)
type bound = { combine : [ `Max | `Min ]; terms : bterm list }

type aref = { array : string; index : affine list }

type binop = Add | Sub | Mul | Div

type expr =
  | Eref of aref
  | Econst of float
  | Evar of string (* loop variable or symbolic parameter *)
  | Ebin of binop * expr * expr
  | Ecall of string * expr list (* intrinsic or uninterpreted function *)

type stmt = { label : string; lhs : aref; rhs : expr }

type guard =
  | Gcmp of [ `Ge | `Eq ] * affine (* e >= 0  or  e = 0 *)
  | Gdiv of Mpz.t * affine (* den divides e *)

type node =
  | Loop of loop
  | If of guard list * node list (* conjunction of guards *)
  | Let of string * bterm * node list
    (* [Let (v, e/d, body)]: bind [v] to the exact quotient [e/d] (the
       enclosing guards guarantee divisibility); produced by code
       generation to reconstruct original iterators *)
  | Stmt of stmt

and loop = {
  var : string;
  lower : bound;
  upper : bound;
  step : Mpz.t; (* >= 1 *)
  body : node list;
}

type program = { params : string list; nest : node list }

(* A path identifies a node: the sequence of child indices from the root
   of the forest.  [] is the (virtual) root. *)
type path = int list

let rec is_prefix (p : path) (q : path) =
  match (p, q) with [], _ -> true | _, [] -> false | a :: p', b :: q' -> a = b && is_prefix p' q'

let is_proper_prefix p q = List.compare_lengths p q < 0 && is_prefix p q

let bterm e = { num = e; den = Mpz.one }
let bterm_int n = bterm (Linexpr.of_int n)
let bterm_var v = bterm (Linexpr.var v)
let lower_bound terms = { combine = `Max; terms }
let upper_bound terms = { combine = `Min; terms }

let simple_loop var lo hi body =
  Loop { var; lower = lower_bound [ lo ]; upper = upper_bound [ hi ]; step = Mpz.one; body }

(* ---- traversal ---- *)

let rec node_at_exn (nest : node list) (p : path) : node =
  match p with
  | [] -> invalid_arg "Ast.node_at_exn: empty path denotes the forest root"
  | [ i ] -> List.nth nest i
  | i :: rest -> (
      match List.nth nest i with
      | Loop l -> node_at_exn l.body rest
      | If (_, body) | Let (_, _, body) -> node_at_exn body rest
      | Stmt _ -> invalid_arg "Ast.node_at_exn: path descends into a statement")

(* All statements with their paths, in syntactic (depth-first, left-right)
   order. *)
let stmts_with_paths (prog : program) : (path * stmt) list =
  let acc = ref [] in
  let rec go prefix i = function
    | [] -> ()
    | n :: rest ->
        let p = prefix @ [ i ] in
        (match n with
        | Stmt s -> acc := (p, s) :: !acc
        | Loop l -> go p 0 l.body
        | If (_, body) | Let (_, _, body) -> go p 0 body);
        go prefix (i + 1) rest
  in
  go [] 0 prog.nest;
  List.rev !acc

let find_stmt_exn prog label =
  match List.find_opt (fun (_, s) -> String.equal s.label label) (stmts_with_paths prog) with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Ast.find_stmt_exn: no statement %s" label)

(* Loops enclosing the node at [p], outermost first, as (path, loop). *)
let loops_enclosing (prog : program) (p : path) : (path * loop) list =
  let rec go nest prefix = function
    | [] -> []
    | i :: rest -> (
        let here = prefix @ [ i ] in
        match List.nth nest i with
        | Stmt _ -> []
        | If (_, body) | Let (_, _, body) -> go body here rest
        | Loop l -> if rest = [] then [] else (here, l) :: go l.body here rest)
  in
  go prog.nest [] p

(* Syntactic order of Definition 1: depth-first positions compare as the
   paths do lexicographically. *)
let syntactic_compare (p1 : path) (p2 : path) = compare p1 p2

let rec expr_arrays acc = function
  | Eref r -> r.array :: List.fold_left (fun a _ -> a) acc r.index
  | Econst _ | Evar _ -> acc
  | Ebin (_, a, b) -> expr_arrays (expr_arrays acc a) b
  | Ecall (_, args) -> List.fold_left expr_arrays acc args

let arrays (prog : program) : string list =
  stmts_with_paths prog
  |> List.fold_left
       (fun acc (_, s) -> expr_arrays (s.lhs.array :: acc) s.rhs)
       []
  |> List.sort_uniq String.compare

(* Loop variables bound anywhere in the program. *)
let loop_vars (prog : program) : string list =
  let acc = ref [] in
  let rec go = function
    | Stmt _ -> ()
    | If (_, body) | Let (_, _, body) -> List.iter go body
    | Loop l ->
        acc := l.var :: !acc;
        List.iter go l.body
  in
  List.iter go prog.nest;
  List.sort_uniq String.compare !acc

(* ---- validation ---- *)

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let validate (prog : program) : unit =
  let seen_labels = Hashtbl.create 16 in
  let check_affine_scope scope e what =
    List.iter
      (fun v ->
        if not (List.mem v scope || List.mem v prog.params) then
          invalid "%s mentions %s, which is neither an enclosing loop variable nor a parameter"
            what v)
      (Linexpr.vars e)
  in
  let rec go scope = function
    | Stmt s ->
        if Hashtbl.mem seen_labels s.label then invalid "duplicate statement label %s" s.label;
        Hashtbl.add seen_labels s.label ();
        List.iter
          (fun e -> check_affine_scope scope e (Printf.sprintf "subscript of %s in %s" s.lhs.array s.label))
          s.lhs.index;
        let rec chk = function
          | Eref r -> List.iter (fun e -> check_affine_scope scope e (Printf.sprintf "subscript of %s in %s" r.array s.label)) r.index
          | Econst _ -> ()
          | Evar v ->
              if not (List.mem v scope || List.mem v prog.params) then
                invalid "statement %s reads unbound variable %s" s.label v
          | Ebin (_, a, b) ->
              chk a;
              chk b
          | Ecall (_, args) -> List.iter chk args
        in
        chk s.rhs
    | If (gs, body) ->
        List.iter
          (function
            | Gcmp (_, e) -> check_affine_scope scope e "guard"
            | Gdiv (d, e) ->
                if Mpz.sign d <= 0 then invalid "guard divisor must be positive";
                check_affine_scope scope e "guard")
          gs;
        List.iter (go scope) body
    | Let (v, { num; den }, body) ->
        if List.mem v scope then invalid "let-bound %s shadows an enclosing loop" v;
        if Mpz.sign den <= 0 then invalid "let %s has a non-positive divisor" v;
        check_affine_scope scope num (Printf.sprintf "definition of %s" v);
        List.iter (go (v :: scope)) body
    | Loop l ->
        if List.mem l.var scope then invalid "loop variable %s shadows an enclosing loop" l.var;
        if List.mem l.var prog.params then invalid "loop variable %s shadows a parameter" l.var;
        if Mpz.sign l.step <= 0 then invalid "loop %s has non-positive step" l.var;
        if l.lower.terms = [] || l.upper.terms = [] then invalid "loop %s lacks bounds" l.var;
        List.iter
          (fun { num; den } ->
            if Mpz.sign den <= 0 then invalid "loop %s has a non-positive bound divisor" l.var;
            check_affine_scope scope num (Printf.sprintf "bound of loop %s" l.var))
          (l.lower.terms @ l.upper.terms);
        List.iter (go (l.var :: scope)) l.body
  in
  List.iter (go []) prog.nest

(* True when every statement is nested inside every loop on its root path
   and the nest is a single chain of loops (Section 1's "perfectly
   nested"). *)
let is_perfect (prog : program) : bool =
  let rec go = function
    | [ Loop l ] -> go l.body
    | [ Stmt _ ] -> true
    | nodes -> List.for_all (function Stmt _ -> true | _ -> false) nodes && List.length nodes >= 1
  in
  match prog.nest with [ Loop _ ] -> go prog.nest | _ -> false

(* ---- variable renaming (used by loop fusion) ---- *)

let rec rename_var_expr old_v new_v = function
  | Evar v when String.equal v old_v -> Evar new_v
  | (Evar _ | Econst _) as e -> e
  | Eref r -> Eref { r with index = List.map (fun a -> rename_affine_var old_v new_v a) r.index }
  | Ebin (op, a, b) -> Ebin (op, rename_var_expr old_v new_v a, rename_var_expr old_v new_v b)
  | Ecall (f, args) -> Ecall (f, List.map (rename_var_expr old_v new_v) args)

and rename_affine_var old_v new_v (e : affine) : affine =
  Linexpr.rename (fun v -> if String.equal v old_v then new_v else v) e

(* Rename free occurrences of [old_v] to [new_v]; binders of [old_v]
   shadow (their subtrees are left alone). *)
let rec rename_var_node old_v new_v node =
  let ra = rename_affine_var old_v new_v in
  match node with
  | Stmt s ->
      Stmt
        {
          s with
          lhs = { s.lhs with index = List.map ra s.lhs.index };
          rhs = rename_var_expr old_v new_v s.rhs;
        }
  | If (gs, body) ->
      let g = function Gcmp (k, e) -> Gcmp (k, ra e) | Gdiv (d, e) -> Gdiv (d, ra e) in
      If (List.map g gs, List.map (rename_var_node old_v new_v) body)
  | Let (v, { num; den }, body) ->
      let body' = if String.equal v old_v then body else List.map (rename_var_node old_v new_v) body in
      Let (v, { num = ra num; den }, body')
  | Loop l ->
      let bnd (b : bound) = { b with terms = List.map (fun t -> { t with num = ra t.num }) b.terms } in
      let body' =
        if String.equal l.var old_v then l.body else List.map (rename_var_node old_v new_v) l.body
      in
      Loop { l with lower = bnd l.lower; upper = bnd l.upper; body = body' }
