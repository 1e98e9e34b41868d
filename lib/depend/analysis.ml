module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Omega = Inl_presburger.Omega
module Interval = Inl_presburger.Interval
module Ast = Inl_ir.Ast
module Meval = Inl_ir.Meval
module Layout = Inl_instance.Layout
module Diag = Inl_diag.Diag
module Pool = Inl_parallel.Pool

(* ---- access collection ---- *)

let rec reads_of_expr acc = function
  | Ast.Eref r -> r :: acc
  | Ast.Econst _ | Ast.Evar _ -> acc
  | Ast.Ebin (_, a, b) -> reads_of_expr (reads_of_expr acc a) b
  | Ast.Ecall (_, args) -> List.fold_left reads_of_expr acc args

let writes_of (si : Layout.stmt_info) = [ si.stmt.lhs ]
let reads_of (si : Layout.stmt_info) = List.rev (reads_of_expr [] si.stmt.rhs)

(* ---- symbolic systems ---- *)

let src_prefix = "s!"
let dst_prefix = "t!"

let renamer (si : Layout.stmt_info) prefix =
  let own = List.map (fun (_, (l : Ast.loop)) -> l.var) si.loops in
  fun v -> if List.mem v own then prefix ^ v else v

let rename_affine rn (e : Linexpr.t) = Linexpr.rename rn e

(* Loop-bound constraints of one instance, with loop variables renamed. *)
let bounds_constraints (si : Layout.stmt_info) rn : Constr.t list =
  List.concat_map
    (fun (_, (l : Ast.loop)) ->
      (* dependence analysis runs on source programs, whose bounds use the
         natural combiners: a conjunction of per-term constraints *)
      if l.lower.combine <> `Max || l.upper.combine <> `Min then
        invalid_arg "Analysis: union (covering) bounds are not a source-program feature";
      let v = Linexpr.var (rn l.var) in
      let lowers =
        List.map
          (fun ({ num; den } : Ast.bterm) ->
            Constr.ge (Linexpr.sub (Linexpr.scale den v) (rename_affine rn num)))
          l.lower.terms
      in
      let uppers =
        List.map
          (fun ({ num; den } : Ast.bterm) ->
            Constr.ge (Linexpr.sub (rename_affine rn num) (Linexpr.scale den v)))
          l.upper.terms
      in
      lowers @ uppers)
    si.loops

(* Affine expressions (in renamed variables) for every instance-vector
   coordinate of a statement. *)
let coordinate_exprs (layout : Layout.t) (si : Layout.stmt_info) rn : Linexpr.t array =
  let a, b = si.embedding in
  let n = Layout.size layout in
  Array.init n (fun p ->
      let base = Linexpr.const b.(p) in
      List.fold_left
        (fun acc (j, (_, (l : Ast.loop))) ->
          let c = Mat.get a p j in
          if Mpz.is_zero c then acc else Linexpr.add acc (Linexpr.term c (rn l.var)))
        base
        (List.mapi (fun j lp -> (j, lp)) si.loops))

let delta_var p = Printf.sprintf "d!%d" p

let delta_definitions layout s_src s_dst rn_s rn_t : Constr.t list =
  let sv = coordinate_exprs layout s_src rn_s and tv = coordinate_exprs layout s_dst rn_t in
  List.init (Layout.size layout) (fun p ->
      Constr.eq2 (Linexpr.var (delta_var p)) (Linexpr.sub tv.(p) sv.(p)))

let order_constraints common rn_s rn_t (lvl : Dep.level) : Constr.t list =
  let vars = List.map (fun (_, (l : Ast.loop)) -> l.var) common in
  match lvl with
  | Dep.Independent -> List.map (fun v -> Constr.eq2 (Linexpr.var (rn_s v)) (Linexpr.var (rn_t v))) vars
  | Dep.Carried k ->
      List.mapi
        (fun i v ->
          if i < k - 1 then Some (Constr.eq2 (Linexpr.var (rn_s v)) (Linexpr.var (rn_t v)))
          else if i = k - 1 then Some (Constr.lt2 (Linexpr.var (rn_s v)) (Linexpr.var (rn_t v)))
          else None)
        vars
      |> List.filter_map Fun.id

let subscript_constraints (w : Ast.aref) (r : Ast.aref) rn_w rn_r : Constr.t list option =
  if List.length w.index <> List.length r.index then None
  else
    Some
      (List.map2
         (fun a b -> Constr.eq2 (rename_affine rn_w a) (rename_affine rn_r b))
         w.index r.index)

(* Conservative per-level direction vector used when the exact projection
   exhausts its budget: the order constraints of the level are structural
   facts (they define what "carried at level k" / "loop-independent"
   means), so they hold of every concrete dependent pair at that level
   even though Omega never ran — common-loop deltas are 0 above the
   carrying level, >= 1 at it, and unknown ([*]) everywhere else. *)
let conservative_vector layout common_positions (lvl : Dep.level) : Interval.t array =
  let v = Array.make (Layout.size layout) Interval.top in
  (match lvl with
  | Dep.Independent -> List.iter (fun p -> v.(p) <- Interval.zero) common_positions
  | Dep.Carried k ->
      List.iteri
        (fun i p ->
          if i < k - 1 then v.(p) <- Interval.zero else if i = k - 1 then v.(p) <- Interval.plus)
        common_positions);
  v

let analyze_pair ?ctx ?(warn = fun (_ : Diag.t) -> ()) layout (s_src : Layout.stmt_info)
    (s_dst : Layout.stmt_info) (acc_src : Ast.aref) (acc_dst : Ast.aref) (kind : Dep.kind) :
    Dep.t list =
  if not (String.equal acc_src.array acc_dst.array) then []
  else begin
    let rn_s = renamer s_src src_prefix and rn_t = renamer s_dst dst_prefix in
    match subscript_constraints acc_src acc_dst rn_s rn_t with
    | None -> []
    | Some subs ->
        let common = Layout.common_loops layout s_src s_dst in
        let common_positions = Layout.common_loop_positions layout s_src s_dst in
        let base =
          bounds_constraints s_src rn_s @ bounds_constraints s_dst rn_t @ subs
          @ delta_definitions layout s_src s_dst rn_s rn_t
        in
        let levels =
          List.init (List.length common) (fun i -> Dep.Carried (i + 1))
          @
          if
            (not (s_src.path = s_dst.path))
            && Ast.syntactic_compare s_src.path s_dst.path < 0
          then [ Dep.Independent ]
          else []
        in
        let mk level vector approximate =
          {
            Dep.src = s_src.label;
            dst = s_dst.label;
            array = acc_src.array;
            kind;
            level;
            vector;
            approximate;
          }
        in
        List.filter_map
          (fun lvl ->
            let exact () =
              let sys = System.of_list (base @ order_constraints common rn_s rn_t lvl) in
              if not (Omega.satisfiable ?ctx sys) then None
              else begin
                let vector =
                  Array.init (Layout.size layout) (fun p ->
                      Omega.implied_interval ?ctx sys (delta_var p))
                in
                Some (mk lvl vector false)
              end
            in
            match exact () with
            | r -> r
            | exception Omega.Blowup reason ->
                (* degrade, never crash: a conservative dependence covers
                   every pair the exact projection could have found, so
                   downstream legality can only get stricter *)
                let d = mk lvl (conservative_vector layout common_positions lvl) true in
                warn
                  (Diag.warningf ~code:"A201" ~phase:Diag.Analysis
                     "approximate dependence %a: %s" Dep.pp d reason);
                Some d)
          levels
  end

let dependences_diag (layout : Layout.t) : Dep.t list * Diag.t list =
  let ctx = Omega.new_analysis () in
  let stmts = layout.stmts in
  (* One task per conflicting reference pair, in traversal order.  Each
     task is independent (its own diagnostic accumulator; the solver ctx
     is domain-safe), so the pool may run them on any schedule; merging in
     task order keeps diagnostics deterministic, and the final sort makes
     the dependence list schedule-independent. *)
  let tasks =
    List.concat_map
      (fun s_src ->
        List.concat_map
          (fun s_dst ->
            let pairs =
              List.concat_map
                (fun w -> List.map (fun r -> (w, r, Dep.Flow)) (reads_of s_dst))
                (writes_of s_src)
              @ List.concat_map
                  (fun r -> List.map (fun w -> (r, w, Dep.Anti)) (writes_of s_dst))
                  (reads_of s_src)
              @ List.concat_map
                  (fun w -> List.map (fun w' -> (w, w', Dep.Output)) (writes_of s_dst))
                  (writes_of s_src)
            in
            List.map (fun (a_src, a_dst, kind) -> (s_src, s_dst, a_src, a_dst, kind)) pairs)
          stmts)
      stmts
  in
  let results =
    Pool.map
      (fun (s_src, s_dst, a_src, a_dst, kind) ->
        let diags = ref [] in
        let warn d = diags := d :: !diags in
        let deps = analyze_pair ~ctx ~warn layout s_src s_dst a_src a_dst kind in
        (deps, List.rev !diags))
      tasks
  in
  let deps = List.concat_map fst results |> List.stable_sort Dep.compare in
  (deps, List.concat_map snd results)

let dependences (layout : Layout.t) : Dep.t list = fst (dependences_diag layout)

(* ---- concrete oracle ---- *)

type cell = string * int list

let concrete_dependences (layout : Layout.t) ~params =
  let prog = layout.program in
  let instances = Meval.enumerate prog ~params in
  (* Timeline of accesses: (time, label, iters, cell, is_write).  Within a
     single instance, reads precede the write. *)
  let accesses = ref [] in
  List.iteri
    (fun time (label, iters) ->
      let si = Layout.stmt_info layout label in
      let env v =
        match List.assoc_opt v params with
        | Some x -> x
        | None ->
            let rec find i = function
              | [] -> invalid_arg ("concrete_dependences: unbound " ^ v)
              | (_, (l : Ast.loop)) :: rest -> if String.equal l.var v then iters.(i) else find (i + 1) rest
            in
            find 0 si.loops
      in
      let eval_ref (r : Ast.aref) : cell = (r.array, List.map (Meval.eval_affine env) r.index) in
      List.iter
        (fun r -> accesses := ((time, 0), label, iters, eval_ref r, false) :: !accesses)
        (reads_of si);
      List.iter
        (fun w -> accesses := ((time, 1), label, iters, eval_ref w, true) :: !accesses)
        (writes_of si))
    instances;
  let accesses = List.rev !accesses in
  (* group by cell *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((t, lbl, it, cell, w) : (int * int) * string * int array * cell * bool) ->
      let cur = try Hashtbl.find tbl cell with Not_found -> [] in
      Hashtbl.replace tbl cell ((t, lbl, it, w) :: cur))
    (List.map (fun (a, b, c, d, e) -> (a, b, c, d, e)) accesses);
  let results = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _cell accs ->
      let accs = List.sort (fun (t1, _, _, _) (t2, _, _, _) -> compare t1 t2) (List.rev accs) in
      let rec pairs = function
        | [] -> ()
        | ((t1, l1, i1, w1) as a) :: rest ->
            List.iter
              (fun (t2, l2, i2, w2) ->
                (* skip same-instance pairs and read-read pairs *)
                if (not (l1 = l2 && i1 = i2)) && (w1 || w2) && fst t1 <> fst t2 then begin
                  let kind = if w1 && w2 then Dep.Output else if w1 then Dep.Flow else Dep.Anti in
                  let iv1 = Layout.instance_vector layout l1 i1 in
                  let iv2 = Layout.instance_vector layout l2 i2 in
                  let diff = Vec.to_int_array (Vec.sub iv2 iv1) in
                  Hashtbl.replace results (l1, l2, kind, diff) ()
                end)
              rest;
            ignore a;
            pairs rest
      in
      pairs accs)
    tbl;
  Hashtbl.fold (fun (l1, l2, k, d) () acc -> (l1, l2, k, d) :: acc) results []
  |> List.sort compare
