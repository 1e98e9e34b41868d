module Ast = Inl_ir.Ast
module Pipeline = Inl.Pipeline

let loops_with_paths (prog : Ast.program) : (Ast.path * Ast.loop) list =
  let acc = ref [] in
  let rec go prefix nodes =
    List.iteri
      (fun i n ->
        match n with
        | Ast.Loop l ->
            acc := (prefix @ [ i ], l) :: !acc;
            go (prefix @ [ i ]) l.Ast.body
        | Ast.If (_, b) | Ast.Let (_, _, b) -> go (prefix @ [ i ]) b
        | Ast.Stmt _ -> ())
      nodes
  in
  go [] prog.Ast.nest;
  List.rev !acc

(* Interchange and skew only make sense between loops on one
   root-to-statement path: positions in sibling subtrees cannot swap or
   reference each other under the block structure, so those pairs would
   only burn legality checks. *)
let nested_pairs loops =
  List.concat_map
    (fun (pa, (la : Ast.loop)) ->
      List.filter_map
        (fun (pb, (lb : Ast.loop)) ->
          if Inl.Layout.is_proper_prefix pa pb then Some (la.Ast.var, lb.Ast.var) else None)
        loops)
    loops

let enumerate (prog : Ast.program) : Pipeline.step list list =
  let loops = loops_with_paths prog in
  let pairs = nested_pairs loops in
  let interchanges = List.map (fun (outer, inner) -> Pipeline.Interchange (outer, inner)) pairs in
  let reversals = List.map (fun (_, (l : Ast.loop)) -> Pipeline.Reverse l.Ast.var) loops in
  let skews =
    List.concat_map
      (fun (outer, inner) ->
        (* inner skewed by outer (the classical wavefront direction) and
           outer by inner (the paper's Section 5.4 example) *)
        List.concat_map
          (fun (target, source) ->
            [
              Pipeline.Skew { target; source; factor = 1 };
              Pipeline.Skew { target; source; factor = -1 };
            ])
          [ (inner, outer); (outer, inner) ])
      pairs
  in
  (* Wavefront composition, one compound move: skew the inner loop by
     the outer, then interchange — the time-iterated stencils (jacobi1d,
     seidel1d) need exactly this pair to gain a DOALL dimension, and as
     two separate generations the intermediate skew-only state rarely
     survives the beam.  Factor 2 covers stencils whose dependence cone
     ({(1,-1),(1,0),(1,1)}) a unit skew cannot rotate past vertical. *)
  let wavefronts =
    List.concat_map
      (fun (outer, inner) ->
        List.map
          (fun factor ->
            [
              Pipeline.Skew { target = inner; source = outer; factor };
              Pipeline.Interchange (outer, inner);
            ])
          [ 1; 2 ])
      pairs
  in
  let stmts = Ast.stmts_with_paths prog in
  let aligns =
    if List.length stmts < 2 then []
    else
      List.concat_map
        (fun (path, (s : Ast.stmt)) ->
          List.concat_map
            (fun (_, (l : Ast.loop)) ->
              [
                Pipeline.Align { stmt = s.Ast.label; loop = l.Ast.var; amount = 1 };
                Pipeline.Align { stmt = s.Ast.label; loop = l.Ast.var; amount = -1 };
              ])
            (Ast.loops_enclosing prog path))
        stmts
  in
  let reorders =
    List.concat_map
      (fun (parent, m) ->
        let ids = List.init m Fun.id in
        let perms =
          if m <= 4 then List.filter (fun p -> p <> ids) (Inl.Completion.permutations ids)
          else
            List.init (m - 1) (fun i ->
                List.mapi (fun j x -> if j = i then x + 1 else if j = i + 1 then x - 1 else x) ids)
        in
        List.map (fun perm -> Pipeline.Reorder { parent; perm }) perms)
      (Inl.Completion.reorder_sites prog)
  in
  List.map (fun s -> [ s ]) (interchanges @ reversals @ skews @ aligns @ reorders)
  @ wavefronts
