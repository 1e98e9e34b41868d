module Mpz = Inl_num.Mpz
module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout

type t = {
  matrix : Mat.t;
  old_layout : Layout.t;
  new_program : Ast.program;
  new_layout : Layout.t;
  old_to_new : int array;
  perms : (Ast.path * int array) list;
}

exception Reject of string

let reject fmt = Format.kasprintf (fun s -> raise (Reject s)) fmt

(* Number of instance-vector positions contributed by a node's subtree. *)
let rec node_size : Ast.node -> int = function
  | Ast.Stmt _ -> 0
  | Ast.If (_, body) | Ast.Let (_, _, body) -> children_size body
  | Ast.Loop l -> 1 + children_size l.body

and children_size (children : Ast.node list) : int =
  let m = List.length children in
  let edges = if m >= 2 then m else 0 in
  edges + List.fold_left (fun acc c -> acc + node_size c) 0 children

(* Offsets of the pieces of a children region laid out as
   [edges e_{m-1}..e_0][block of child m-1]...[block of child 0]
   starting at [base]: returns (edge_base, block_offset array indexed by
   child). *)
let region_offsets base (children : Ast.node list) =
  let m = List.length children in
  let edges = if m >= 2 then m else 0 in
  let sizes = Array.of_list (List.map node_size children) in
  let offs = Array.make m 0 in
  let cursor = ref (base + edges) in
  for i = m - 1 downto 0 do
    offs.(i) <- !cursor;
    cursor := !cursor + sizes.(i)
  done;
  (base, offs)

let infer (old_layout : Layout.t) (m : Mat.t) : (t, string) result =
  let prog = old_layout.Layout.program in
  let n = Layout.size old_layout in
  try
    if Mat.rows m <> n || Mat.cols m <> n then
      reject "transformation matrix must be %dx%d for this program" n n;
    let perms = ref [] in
    let old_to_new = Array.make n (-1) in
    (* Recursively check the region of a children list.
       [old_base]/[new_base] are the starting offsets of the children
       region in the old/new layouts; [parent] is the node's path.  The
       old columns outside [allowed] (sibling blocks) must be zero in all
       rows of this region; we enforce sibling isolation locally at each
       level, which composes to the global rule. *)
    let rec check_children parent (children : Ast.node list) old_base new_base :
        Ast.node list =
      let mcount = List.length children in
      if mcount = 0 then []
      else begin
        let nedges = if mcount >= 2 then mcount else 0 in
        let old_edge_base, old_offs = region_offsets old_base children in
        (* infer the child permutation from the edge square *)
        let perm = Array.init mcount Fun.id in
        if mcount >= 2 then begin
          let square = Mat.sub_matrix m ~row:new_base ~col:old_edge_base ~rows:mcount ~cols:mcount in
          if not (Mat.is_permutation square) then
            reject "edge rows at node [%s] are not a permutation"
              (String.concat ";" (List.map string_of_int parent));
          (* edge rows must be zero outside their square *)
          for r = new_base to new_base + mcount - 1 do
            for c = 0 to n - 1 do
              if (c < old_edge_base || c >= old_edge_base + mcount) && not (Mpz.is_zero (Mat.get m r c))
              then
                reject "edge row %d has an entry outside its node's edge columns" r
            done
          done;
          (* square.(k).(k') = 1 means new edge e'_{m-1-k} = old edge
             e_{m-1-k'}: old child (m-1-k') becomes new child (m-1-k) *)
          for k = 0 to mcount - 1 do
            for k' = 0 to mcount - 1 do
              if Mpz.is_one (Mat.get square k k') then perm.(mcount - 1 - k') <- mcount - 1 - k
            done
          done;
          (* map edge positions *)
          for k' = 0 to mcount - 1 do
            let newchild = perm.(mcount - 1 - k') in
            old_to_new.(old_edge_base + k') <- new_base + (mcount - 1 - newchild)
          done
        end;
        perms := (parent, perm) :: !perms;
        (* new block offsets: new child j' has the size of old child
           (inverse-perm j') *)
        let sizes = Array.of_list (List.map node_size children) in
        let inv = Array.make mcount 0 in
        Array.iteri (fun i j -> inv.(j) <- i) perm;
        let new_offs = Array.make mcount 0 in
        let cursor = ref (new_base + nedges) in
        for j = mcount - 1 downto 0 do
          new_offs.(j) <- !cursor;
          cursor := !cursor + sizes.(inv.(j))
        done;
        (* Loop (block) rows are unconstrained: thanks to the diagonal
           padding, a row may even reference a sibling subtree's loop
           column — the paper's own Section 6 completion matrix does so
           (its new L row reads the old I column, whose padded value for
           S3 is K).  Only the edge rows carry structure. *)
        (* recurse into children and place each at its new index; an
           unchanged region is returned as the very same list, so an
           all-identity structure rebuilds nothing *)
        let placed = Array.of_list children in
        List.iteri
          (fun i child ->
            let old_b = old_offs.(i) and new_b = new_offs.(perm.(i)) in
            placed.(perm.(i)) <-
              (match child with
              | Ast.Stmt _ -> child
              | Ast.If _ | Ast.Let _ -> reject "If/Let nodes cannot be transformed"
              | Ast.Loop l ->
                  old_to_new.(old_b) <- new_b;
                  let body' = check_children (parent @ [ i ]) l.body (old_b + 1) (new_b + 1) in
                  if body' == l.body then child else Ast.Loop { l with body = body' }))
          children;
        let same = ref true in
        List.iteri (fun i child -> same := !same && placed.(i) == child) children;
        if !same then children else Array.to_list placed
      end
    in
    let new_nest = check_children [] prog.Ast.nest 0 0 in
    (* Every statement permutation is the identity (interchange, skew,
       reversal): the program and its layout are the old ones. *)
    let new_program, new_layout =
      if new_nest == prog.Ast.nest then (prog, old_layout)
      else
        let p = { prog with Ast.nest = new_nest } in
        (p, Layout.of_program ~padding:old_layout.Layout.padding p)
    in
    Ok
      {
        matrix = m;
        old_layout;
        new_program;
        new_layout;
        old_to_new;
        perms = List.rev !perms;
      }
  with Reject msg -> Error msg

let map_path (t : t) (p : Ast.path) : Ast.path =
  let rec go prefix = function
    | [] -> []
    | i :: rest ->
        let perm = List.assoc prefix t.perms in
        perm.(i) :: go (prefix @ [ i ]) rest
  in
  go [] p

let new_stmt_info (t : t) label = Layout.stmt_info t.new_layout label
