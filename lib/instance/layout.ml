module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast

type pos_kind = Ploop of Ast.path * string | Pedge of Ast.path * int

type padding = Diagonal | Zero

type stmt_info = {
  label : string;
  path : Ast.path;
  stmt : Ast.stmt;
  loops : (Ast.path * Ast.loop) list;
  embedding : Mat.t * Vec.t;
  loop_pos : int list;
  padded_pos : int list;
}

type t = {
  program : Ast.program;
  padding : padding;
  positions : pos_kind array;
  stmts : stmt_info list;
}

let if_let_refused () = invalid_arg "Layout: If/Let nodes are code-generation output, not source"

(* Positions contributed by the children of the node at [parent] (R,
   Equation 1): edge labels right-to-left when there are >= 2 children,
   then the children's blocks right-to-left. *)
let rec positions_of_children parent (children : Ast.node list) : pos_kind list =
  let m = List.length children in
  let edges =
    if m >= 2 then List.init m (fun k -> Pedge (parent, m - 1 - k)) else []
  in
  let blocks =
    List.rev children
    |> List.mapi (fun k child -> positions_of_node (parent @ [ m - 1 - k ]) child)
    |> List.concat
  in
  edges @ blocks

and positions_of_node path : Ast.node -> pos_kind list = function
  | Ast.Stmt _ -> []
  | Ast.If _ | Ast.Let _ -> if_let_refused ()
  | Ast.Loop l -> Ploop (path, l.var) :: positions_of_children path l.body

(* The lengths of the lists above, without building them. *)
let rec node_size : Ast.node -> int = function
  | Ast.Stmt _ -> 0
  | Ast.If _ | Ast.Let _ -> if_let_refused ()
  | Ast.Loop l ->
      let m = List.length l.body in
      List.fold_left (fun acc c -> acc + node_size c) (if m >= 2 then 1 + m else 1) l.body

let children_region ~base (sizes : int array) : int array =
  let m = Array.length sizes in
  let starts = Array.make m 0 in
  let cursor = ref (if m >= 2 then base + m else base) in
  for i = m - 1 downto 0 do
    starts.(i) <- !cursor;
    cursor := !cursor + sizes.(i)
  done;
  starts

let build_stmt_info padding (positions : pos_kind array) (path, (stmt : Ast.stmt)) loops =
  let n = Array.length positions in
  let k = List.length loops in
  let loop_paths = List.map fst loops in
  let a = Mat.make n k in
  let b = Vec.zero n in
  let loop_pos = ref [] and padded_pos = ref [] in
  Array.iteri
    (fun idx pos ->
      match pos with
      | Pedge (q, c) -> if Ast.is_prefix (q @ [ c ]) path then b.(idx) <- Mpz.one
      | Ploop (q, _) -> (
          (* is q one of the statement's own loops? *)
          match List.find_opt (fun (j, lp) -> ignore j; lp = q) (List.mapi (fun j lp -> (j, lp)) loop_paths) with
          | Some (j, _) ->
              Mat.set a idx j Mpz.one;
              loop_pos := idx :: !loop_pos
          | None ->
              padded_pos := idx :: !padded_pos;
              (match padding with
              | Zero -> ()
              | Diagonal ->
                  (* deepest enclosing loop of the statement that is an
                     ancestor of q: its label is what procedure M copies *)
                  let best = ref (-1) in
                  List.iteri (fun j lp -> if Ast.is_prefix lp q then best := j) loop_paths;
                  if !best >= 0 then Mat.set a idx !best Mpz.one)))
    positions;
  {
    label = stmt.label;
    path;
    stmt;
    loops;
    embedding = (a, b);
    loop_pos = List.rev !loop_pos;
    padded_pos = List.rev !padded_pos;
  }

let of_program ?(padding = Diagonal) (program : Ast.program) : t =
  let positions = Array.of_list (positions_of_children [] program.nest) in
  let stmts =
    Ast.stmts_with_paths program
    |> List.map (fun (path, stmt) ->
           let loops = Ast.loops_enclosing program path in
           build_stmt_info padding positions (path, stmt) loops)
  in
  { program; padding; positions; stmts }

let size t = Array.length t.positions

let stmt_info t label =
  match List.find_opt (fun si -> String.equal si.label label) t.stmts with
  | Some si -> si
  | None -> raise Not_found

let position_of_loop t path =
  let found = ref (-1) in
  Array.iteri
    (fun idx pos -> match pos with Ploop (q, _) when q = path -> found := idx | _ -> ())
    t.positions;
  if !found < 0 then raise Not_found else !found

let loop_positions t =
  Array.to_list t.positions
  |> List.mapi (fun i p -> (i, p))
  |> List.filter_map (function i, Ploop _ -> Some i | _, Pedge _ -> None)

let instance_vector t label (iters : int array) =
  let si = stmt_info t label in
  let a, b = si.embedding in
  if Array.length iters <> Mat.cols a then
    invalid_arg
      (Printf.sprintf "Layout.instance_vector: %s expects %d loop values, got %d" label
         (Mat.cols a) (Array.length iters));
  Vec.add (Mat.apply a (Vec.of_int_array iters)) b

let common_loops _t (s1 : stmt_info) (s2 : stmt_info) =
  List.filter (fun (p, _) -> List.exists (fun (q, _) -> q = p) s2.loops) s1.loops

let common_loop_positions t s1 s2 =
  List.map (fun (p, _) -> position_of_loop t p) (common_loops t s1 s2)

let l_inverse t (iv : Vec.t) : (string * int array) option =
  (* Follow the 1-labeled edges from the root; single-child nodes have no
     edge position and descend unconditionally. *)
  let edge_label q c =
    let idx = ref None in
    Array.iteri
      (fun i pos -> match pos with Pedge (q', c') when q' = q && c' = c -> idx := Some i | _ -> ())
      t.positions;
    match !idx with Some i -> Some iv.(i) | None -> None
  in
  let rec descend (path : Ast.path) (nodes : Ast.node list) : Ast.path option =
    let m = List.length nodes in
    let pick =
      if m = 1 then Some 0
      else begin
        let ones =
          List.filteri
            (fun c _ ->
              match edge_label path c with Some l -> Mpz.is_one l | None -> false)
            (List.init m Fun.id)
        in
        match ones with [ c ] -> Some c | _ -> None
      end
    in
    match pick with
    | None -> None
    | Some c -> (
        match List.nth nodes c with
        | Ast.Stmt _ -> Some (path @ [ c ])
        | Ast.Loop l -> descend (path @ [ c ]) l.body
        | Ast.If (_, body) | Ast.Let (_, _, body) -> descend (path @ [ c ]) body)
  in
  match descend [] t.program.nest with
  | None -> None
  | Some path -> (
      match List.find_opt (fun si -> si.path = path) t.stmts with
      | None -> None
      | Some si ->
          let iters =
            List.map (fun (lp, _) -> Mpz.to_int iv.(position_of_loop t lp)) si.loops
          in
          Some (si.label, Array.of_list iters))

let pp_positions fmt t =
  Format.pp_open_vbox fmt 0;
  Array.iteri
    (fun i pos ->
      match pos with
      | Ploop (p, v) ->
          Format.fprintf fmt "%d: loop %s at [%s]@," i v
            (String.concat ";" (List.map string_of_int p))
      | Pedge (p, c) ->
          Format.fprintf fmt "%d: edge [%s] -> child %d@," i
            (String.concat ";" (List.map string_of_int p))
            c)
    t.positions;
  Format.pp_close_box fmt ()
