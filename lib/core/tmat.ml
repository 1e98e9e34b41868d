module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout

let identity layout = Mat.identity (Layout.size layout)

let loop_position (layout : Layout.t) (var : string) : int =
  let hits =
    Array.to_list layout.Layout.positions
    |> List.mapi (fun i p -> (i, p))
    |> List.filter_map (function
         | i, Layout.Ploop (_, v) when String.equal v var -> Some i
         | _ -> None)
  in
  match hits with
  | [ i ] -> i
  | [] -> raise Not_found
  | _ -> failwith (Printf.sprintf "Tmat.loop_position: several loops named %s" var)

let interchange layout a b =
  Mat.swap_rows_matrix (Layout.size layout) (loop_position layout a) (loop_position layout b)

let reversal layout var =
  let m = identity layout in
  let p = loop_position layout var in
  Mat.set m p p Mpz.minus_one;
  m

let scaling layout var k =
  if k = 0 then invalid_arg "Tmat.scaling: zero factor";
  let m = identity layout in
  let p = loop_position layout var in
  Mat.set m p p (Mpz.of_int k);
  m

let skew layout ~target ~source ~factor =
  let m = identity layout in
  let t = loop_position layout target and s = loop_position layout source in
  if t = s then invalid_arg "Tmat.skew: target equals source";
  Mat.set m t s (Mpz.of_int factor);
  m

(* The deepest edge position on the statement's path: the column that is 1
   exactly for this statement's instances. *)
let private_edge_column (layout : Layout.t) (si : Layout.stmt_info) : int option =
  let best = ref None in
  Array.iteri
    (fun i pos ->
      match pos with
      | Layout.Pedge (q, c) ->
          let edge_path = q @ [ c ] in
          if Layout.is_prefix edge_path si.Layout.path then begin
            match !best with
            | Some (d, _) when d >= List.length edge_path -> ()
            | _ -> best := Some (List.length edge_path, i)
          end
      | Layout.Ploop _ -> ())
    layout.Layout.positions;
  Option.map snd !best

let align layout ~stmt ~loop ~amount =
  let si = Layout.stmt_info layout stmt in
  match private_edge_column layout si with
  | None ->
      failwith
        (Printf.sprintf "Tmat.align: %s has no edge position (it is the only statement)" stmt)
  | Some col ->
      let m = identity layout in
      let row = loop_position layout loop in
      Mat.set m row col (Mpz.of_int amount);
      m

let reorder (layout : Layout.t) ~parent ~perm =
  let prog = layout.Layout.program in
  let permute_children children =
    let arr = Array.of_list children in
    let out = Array.make (Array.length arr) None in
    List.iteri (fun i j -> out.(j) <- Some arr.(i)) perm;
    Array.to_list out |> List.map Option.get
  in
  let rec rebuild prefix nodes =
    let nodes = if prefix = parent then permute_children nodes else nodes in
    List.mapi
      (fun i n ->
        match n with
        | Ast.Loop l -> Ast.Loop { l with body = rebuild (prefix @ [ i ]) l.body }
        | Ast.If (g, body) -> Ast.If (g, rebuild (prefix @ [ i ]) body)
        | Ast.Let (v, d, body) -> Ast.Let (v, d, rebuild (prefix @ [ i ]) body)
        | Ast.Stmt _ -> n)
      nodes
  in
  (* careful: permute first (prefix check), then recurse with NEW indices —
     but [parent] is a path in the OLD program, and only descendants of
     [parent] get renumbered, none of which can equal [parent]; so
     checking the old path is sound. *)
  let new_prog = { prog with Ast.nest = rebuild [] prog.Ast.nest } in
  let new_layout = Layout.of_program ~padding:layout.Layout.padding new_prog in
  let map_path q =
    (* only the child index right below [parent] changes *)
    let rec go pre = function
      | [] -> []
      | i :: rest ->
          if pre = parent then List.nth perm i :: go (pre @ [ List.nth perm i ]) rest
          else i :: go (pre @ [ i ]) rest
    in
    go [] q
  in
  let n = Layout.size layout in
  let m = Mat.make n n in
  let new_index_of pos =
    let target =
      match pos with
      | Layout.Ploop (q, v) -> Layout.Ploop (map_path q, v)
      | Layout.Pedge (q, c) ->
          let q' = map_path q in
          let c' = if q = parent then List.nth perm c else c in
          Layout.Pedge (q', c')
    in
    let found = ref (-1) in
    Array.iteri (fun i p -> if p = target then found := i) new_layout.Layout.positions;
    if !found < 0 then failwith "Tmat.reorder: position mapping failed";
    !found
  in
  Array.iteri (fun old_idx pos -> Mat.set m (new_index_of pos) old_idx Mpz.one) layout.Layout.positions;
  m

let compose second first = Mat.mul second first

(* ---- distribution and jamming (Section 4.2; non-square matrices) ---- *)

let distribute (layout : Layout.t) ~at : Mat.t * Ast.program =
  let prog = layout.Layout.program in
  match prog.Ast.nest with
  | [ Ast.Loop l ] ->
      let mcount = List.length l.Ast.body in
      if mcount < 2 || at <= 0 || at >= mcount then
        invalid_arg "Tmat.distribute: need a split point strictly inside >= 2 children";
      let group1 = List.filteri (fun i _ -> i < at) l.Ast.body in
      let group2 = List.filteri (fun i _ -> i >= at) l.Ast.body in
      let l1 = { l with Ast.body = group1 } and l2 = { l with Ast.body = group2 } in
      let new_prog = { prog with Ast.nest = [ Ast.Loop l1; Ast.Loop l2 ] } in
      (* old positions: [v; e_{m-1}..e_0; B_{m-1}..B_0] *)
      let n_old = Layout.size layout in
      let v_old = 0 in
      let edge_old i = 1 + (mcount - 1 - i) in
      let sizes = Array.of_list (List.map Layout.node_size l.Ast.body) in
      let starts = Layout.children_region ~base:1 sizes in
      (* new rows, in new layout order *)
      let rows = ref [] in
      let unit_row j = Vec.unit n_old j in
      let sum_row js =
        let v = Vec.zero n_old in
        List.iter (fun j -> v.(j) <- Mpz.one) js;
        v
      in
      (* root edges: e_r1 (to new child 1 = group2), e_r0 (group1) *)
      rows := sum_row (List.init (mcount - at) (fun k -> edge_old (at + k))) :: !rows;
      rows := sum_row (List.init at edge_old) :: !rows;
      (* group2 region: v2; its edges (if >= 2 children); blocks of
         children m-1 .. at *)
      rows := unit_row v_old :: !rows;
      if mcount - at >= 2 then
        for k = mcount - 1 downto at do
          rows := unit_row (edge_old k) :: !rows
        done;
      for i = mcount - 1 downto at do
        for j = starts.(i) to starts.(i) + sizes.(i) - 1 do
          rows := unit_row j :: !rows
        done
      done;
      (* group1 region *)
      rows := unit_row v_old :: !rows;
      if at >= 2 then
        for k = at - 1 downto 0 do
          rows := unit_row (edge_old k) :: !rows
        done;
      for i = at - 1 downto 0 do
        for j = starts.(i) to starts.(i) + sizes.(i) - 1 do
          rows := unit_row j :: !rows
        done
      done;
      (Array.of_list (List.rev !rows), new_prog)
  | _ -> invalid_arg "Tmat.distribute: program must be a single top-level loop"

let jam (layout : Layout.t) : Mat.t * Ast.program =
  let prog = layout.Layout.program in
  match prog.Ast.nest with
  | [ Ast.Loop l1; Ast.Loop l2 ] ->
      (* the fused loop binds l1's variable; l2's body must follow suit *)
      let l2_body =
        if String.equal l1.Ast.var l2.Ast.var then l2.Ast.body
        else List.map (Ast.rename_var_node l2.Ast.var l1.Ast.var) l2.Ast.body
      in
      let fused = { l1 with Ast.body = l1.Ast.body @ l2_body } in
      let new_prog = { prog with Ast.nest = [ Ast.Loop fused ] } in
      let n_old = Layout.size layout in
      (* old layout: [E_r1; E_r0; R(L2); R(L1)] *)
      let r_l2_start = 2 in
      let r_l1_start = r_l2_start + Layout.node_size (Ast.Loop l2) in
      let m1 = List.length l1.Ast.body and m2 = List.length l2.Ast.body in
      (* the pieces of R(L2)/R(L1): [v; edges (if >= 2); blocks m-1..0] *)
      let region_info base (l : Ast.loop) =
        let mm = List.length l.Ast.body in
        (* edges listed as e_{m-1}..e_0 — index k holds e_{mm-1-k} *)
        let edges = if mm >= 2 then List.init mm (fun k -> base + 1 + k) else [] in
        let sizes = Array.of_list (List.map Layout.node_size l.Ast.body) in
        (edges, Layout.children_region ~base:(base + 1) sizes, sizes)
      in
      let edges2, starts2, sizes2 = region_info r_l2_start l2 in
      let edges1, starts1, sizes1 = region_info r_l1_start l1 in
      let unit_row j = Vec.unit n_old j in
      let edge_row_of edges mm i root_edge =
        (* row producing the old edge label of child i of a group, where
           [edges] holds positions e_{mm-1}..e_0; a single-child group has
           no inner edges and uses the root edge instead *)
        if mm >= 2 then unit_row (List.nth edges (mm - 1 - i)) else unit_row root_edge
      in
      let rows = ref [] in
      (* fused loop variable: the first loop's label, which opens R(L1)
         (bounds come from l1) *)
      rows := unit_row r_l1_start :: !rows;
      (* new edges e_{m-1}..e_0 for m = m1 + m2 children: child j < m1 from
         L1 (root edge 1 = position 1), child j >= m1 from L2 (root edge 0) *)
      let mtot = m1 + m2 in
      if mtot >= 2 then
        for j = mtot - 1 downto 0 do
          let row =
            if j < m1 then edge_row_of edges1 m1 j 1 else edge_row_of edges2 m2 (j - m1) 0
          in
          rows := row :: !rows
        done;
      (* new blocks, children m-1 .. 0 *)
      for j = mtot - 1 downto 0 do
        let starts, sizes, i = if j < m1 then (starts1, sizes1, j) else (starts2, sizes2, j - m1) in
        for p = starts.(i) to starts.(i) + sizes.(i) - 1 do
          rows := unit_row p :: !rows
        done
      done;
      (Array.of_list (List.rev !rows), new_prog)
  | _ -> invalid_arg "Tmat.jam: program must be exactly two top-level loops"
