module Ast = Inl_ir.Ast
module Linexpr = Inl_presburger.Linexpr
module Layout = Inl_instance.Layout
module Diag = Inl_diag.Diag
module Pipeline = Inl.Pipeline

(* Fixed vocabulary: arities are per-array constants so the dependence
   analyzer never sees the same array at two ranks. *)
let arrays = [ ("A", 2); ("B", 1); ("C", 1); ("D", 2) ]

let loop_names = [| "i"; "j"; "k"; "l"; "m"; "p" |]

let le coeffs c = Linexpr.of_terms coeffs c

(* ---- affine subscripts ---- *)

(* An affine form over the enclosing loop vars (and occasionally N):
   biased toward the identity-like subscripts of real kernels so that
   statements actually conflict and the dependence matrix is non-trivial. *)
let gen_subscript rng (vars : string list) : Ast.affine =
  match vars with
  | [] -> le [] (Rng.range rng 1 2)
  | _ ->
      let v = Rng.pick rng vars in
      let coeff = if Rng.chance rng 5 6 then 1 else Rng.pick rng [ -1; 2 ] in
      let const = if Rng.chance rng 2 3 then 0 else Rng.range rng (-2) 2 in
      let extra =
        if Rng.chance rng 1 6 && List.length vars > 1 then
          let w = Rng.pick rng (List.filter (fun w -> w <> v) vars) in
          [ ((if Rng.bool rng then 1 else -1), w) ]
        else []
      in
      le ((coeff, v) :: extra) const

let gen_aref rng vars : Ast.aref =
  let array, rank = Rng.pick rng arrays in
  { Ast.array; index = List.init rank (fun _ -> gen_subscript rng vars) }

(* ---- right-hand sides ---- *)

let rec gen_expr rng vars depth : Ast.expr =
  let leaf () =
    match Rng.int rng 4 with
    | 0 -> Ast.Econst (float_of_int (Rng.range rng 1 4))
    | 1 when vars <> [] -> Ast.Evar (Rng.pick rng vars)
    | _ -> Ast.Eref (gen_aref rng vars)
  in
  if depth <= 0 || Rng.chance rng 1 3 then leaf ()
  else
    match Rng.int rng 5 with
    | 0 -> Ast.Ecall ("sqrt", [ gen_expr rng vars (depth - 1) ])
    | 1 -> Ast.Ecall ("f", [ gen_expr rng vars (depth - 1); gen_expr rng vars (depth - 1) ])
    | _ ->
        let op = Rng.pick rng [ Ast.Add; Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
        Ast.Ebin (op, gen_expr rng vars (depth - 1), gen_expr rng vars (depth - 1))

let gen_stmt rng vars : Ast.node =
  (* label is a placeholder; the whole program is relabeled afterwards *)
  Ast.Stmt { Ast.label = "S"; lhs = gen_aref rng vars; rhs = gen_expr rng vars 2 }

(* ---- loop bounds ---- *)

(* Triangular shapes ([outer+1..N], [1..outer]) are the paper's bread and
   butter; keep them common but not exclusive. *)
let gen_bounds rng (outer : string list) : Ast.bterm * Ast.bterm =
  let lower =
    match outer with
    | o :: _ when Rng.chance rng 2 5 ->
        if Rng.bool rng then Ast.bterm (le [ (1, o) ] 1) else Ast.bterm_var o
    | _ -> Ast.bterm_int 1
  in
  let upper =
    match outer with
    | o :: _ when Rng.chance rng 1 5 -> Ast.bterm_var o
    | _ -> if Rng.chance rng 1 6 then Ast.bterm (le [ (1, "N") ] (-1)) else Ast.bterm_var "N"
  in
  (lower, upper)

(* ---- program structure ---- *)

(* Free recursion over the motif space; [next_var] keeps loop variables
   globally unique so pipeline steps can name them unambiguously. *)
let rec gen_nodes rng ~depth ~next_var ~(outer : string list) ~(budget : int ref) : Ast.node list =
  let n_children = Rng.range rng 1 (if depth = 0 then 2 else 3) in
  List.concat
    (List.init n_children (fun _ ->
         if !budget <= 0 then []
         else if depth >= 3 || !next_var >= Array.length loop_names || Rng.chance rng 2 5 then begin
           decr budget;
           (* innermost vars first in [outer]: recent binders are the
              likeliest subscripts, like hand-written kernels *)
           [ gen_stmt rng outer ]
         end
         else begin
           let var = loop_names.(!next_var) in
           incr next_var;
           let lower, upper = gen_bounds rng outer in
           let body = gen_nodes rng ~depth:(depth + 1) ~next_var ~outer:(var :: outer) ~budget in
           match body with
           | [] ->
               decr budget;
               [ Ast.simple_loop var lower upper [ gen_stmt rng (var :: outer) ] ]
           | body -> [ Ast.simple_loop var lower upper body ]
         end))

let relabel (prog : Ast.program) : Ast.program =
  let n = ref 0 in
  let rec go node =
    match node with
    | Ast.Stmt s ->
        incr n;
        Ast.Stmt { s with Ast.label = Printf.sprintf "S%d" !n }
    | Ast.Loop l -> Ast.Loop { l with Ast.body = List.map go l.Ast.body }
    | Ast.If (gs, body) -> Ast.If (gs, List.map go body)
    | Ast.Let (v, b, body) -> Ast.Let (v, b, List.map go body)
  in
  { prog with Ast.nest = List.map go prog.Ast.nest }

let candidate rng : Ast.program =
  let next_var = ref 0 and budget = ref (Rng.range rng 1 4) in
  let nest = gen_nodes rng ~depth:0 ~next_var ~outer:[] ~budget in
  relabel { Ast.params = [ "N" ]; nest }

(* The always-valid fallback (the paper's simplified Cholesky): reached
   only if dozens of consecutive candidates fail the post-check. *)
let fallback : Ast.program Lazy.t =
  lazy (Inl_ir.Parser.parse_exn Inl_kernels.Paper_examples.simplified_cholesky)

(* Post-check: structural validity, an instance-vector layout, and no
   errors from the V001-V007 well-formedness lint.  (Warnings — dead
   loops, redundant guards — are legitimate fuzz inputs and stay.) *)
let well_formed (prog : Ast.program) : bool =
  match Ast.validate prog with
  | exception Ast.Invalid _ -> false
  | () -> (
      match Layout.of_program prog with
      | exception Invalid_argument _ -> false
      | layout ->
          Layout.size layout > 0
          && (not (Diag.has_errors (Inl_verify.Lint.run prog)))
          && prog.Ast.nest <> [])

let program rng : Ast.program =
  let rec attempt k =
    if k >= 50 then Lazy.force fallback
    else
      let p = candidate rng in
      if well_formed p then p else attempt (k + 1)
  in
  attempt 0

(* ---- transformation sampling ---- *)

let multi_child_nodes (prog : Ast.program) : (Ast.path * int) list =
  let acc = ref [] in
  let note path n = if n >= 2 then acc := (path, n) :: !acc in
  let rec go path i node =
    match node with
    | Ast.Loop l ->
        let p = path @ [ i ] in
        note p (List.length l.Ast.body);
        List.iteri (go p) l.Ast.body
    | _ -> ()
  in
  note [] (List.length prog.Ast.nest);
  List.iteri (go []) prog.Ast.nest;
  List.rev !acc

(* The order of the draws is part of every pinned campaign: [scale]
   draws its factor before its loop, [align] its amount, then its loop,
   then its statement. *)
let gen_step rng (prog : Ast.program) : Pipeline.step option =
  let vars = Ast.loop_vars prog in
  let labels = List.map (fun (_, (s : Ast.stmt)) -> s.Ast.label) (Ast.stmts_with_paths prog) in
  let nodes = multi_child_nodes prog in
  let reorder_step () =
    match nodes with
    | [] -> None
    | _ ->
        let parent, n = Rng.pick rng nodes in
        let perm = Rng.shuffle rng (List.init n Fun.id) in
        Some (Pipeline.Reorder { parent; perm })
  in
  if vars = [] then
    (* a loop-less statement chain: reordering is the only loop-free step *)
    reorder_step ()
  else
  let pick_two () =
    let a = Rng.pick rng vars in
    match List.filter (fun v -> v <> a) vars with [] -> None | rest -> Some (a, Rng.pick rng rest)
  in
  let amount () = Rng.pick rng [ -2; -1; 1; 2 ] in
  match Rng.int rng 6 with
  | 0 -> Option.map (fun (a, b) -> Pipeline.Interchange (a, b)) (pick_two ())
  | 1 -> Some (Pipeline.Reverse (Rng.pick rng vars))
  | 2 ->
      let k = Rng.range rng 2 3 in
      Some (Pipeline.Scale (Rng.pick rng vars, k))
  | 3 ->
      Option.map
        (fun (target, source) -> Pipeline.Skew { target; source; factor = amount () })
        (pick_two ())
  | 4 when labels <> [] ->
      let amount = amount () in
      let loop = Rng.pick rng vars in
      Some (Pipeline.Align { stmt = Rng.pick rng labels; loop; amount })
  | _ -> (
      match reorder_step () with
      | None -> Some (Pipeline.Reverse (Rng.pick rng vars))
      | some -> some)

let gen_steps rng prog : Pipeline.step list =
  List.filter_map (fun _ -> gen_step rng prog) (List.init (Rng.range rng 1 3) Fun.id)

let gen_partial rng (size : int) (loop_pos : int list) : int list list =
  let unit_row () =
    let row = Array.make size 0 in
    let p = Rng.pick rng loop_pos in
    row.(p) <- (if Rng.chance rng 4 5 then 1 else -1);
    (* occasionally a skew-like second entry *)
    if Rng.chance rng 1 4 && List.length loop_pos > 1 then begin
      let q = Rng.pick rng (List.filter (fun q -> q <> p) loop_pos) in
      row.(q) <- Rng.pick rng [ -1; 1 ]
    end;
    Array.to_list row
  in
  List.init (if Rng.chance rng 4 5 then 1 else 2) (fun _ -> unit_row ())

let gen_edits rng (size : int) : Tf.edit list =
  List.init (Rng.range rng 1 2) (fun _ ->
      if Rng.bool rng then Tf.Negate_row (Rng.int rng size)
      else
        Tf.Add_entry
          {
            row = Rng.int rng size;
            col = Rng.int rng size;
            delta = Rng.pick rng [ -2; -1; 1; 2 ];
          })

let sample_tf rng (prog : Ast.program) : Tf.t =
  let layout = Layout.of_program prog in
  let size = Layout.size layout in
  let loop_pos = Layout.loop_positions layout in
  let base =
    if loop_pos <> [] && Rng.chance rng 2 5 then
      { Tf.steps = []; partial = gen_partial rng size loop_pos; edits = [] }
    else { Tf.steps = gen_steps rng prog; partial = []; edits = [] }
  in
  if Rng.chance rng 1 5 then { base with Tf.edits = gen_edits rng size } else base

let case ~seed ~index =
  let rng = Rng.case ~seed ~index in
  let prog = program rng in
  (prog, sample_tf rng prog)
