module Q = Inl_num.Q
module Mpz = Inl_num.Mpz
module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Linexpr = Inl_presburger.Linexpr
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Gauss = Inl_linalg.Gauss
module Layout = Inl_instance.Layout
module Diag = Inl_diag.Diag
module Memo = Inl_diag.Memo
module Opt = Inl_diag.Opt

type cls = Temporal | Spatial of int | NoReuse | Unknown

type ref_sig = { array : string; text : string; is_write : bool; classes : cls array }

type stmt_sig = {
  label : string;
  depth : int;
  loops : string list;
  singular : bool;
  truncated : bool;
  refs : ref_sig list;
}

type t = { line_elems : int; stmts : stmt_sig list }

let collect_refs (stmt : Ast.stmt) : Ast.aref list =
  let rec go acc = function
    | Ast.Eref r -> r :: acc
    | Ast.Econst _ | Ast.Evar _ -> acc
    | Ast.Ebin (_, a, b) -> go (go acc a) b
    | Ast.Ecall (_, args) -> List.fold_left go acc args
  in
  stmt.Ast.lhs :: List.rev (go [] stmt.Ast.rhs)

(* ---- classification ---- *)

(* A rational column of T_S^-1, scaled to the primitive integer vector
   pointing the same way: clear denominators, divide by the gcd.  For
   unimodular T_S this is the identity (integer columns of gcd 1), so
   the score below reproduces the original static tier exactly there. *)
let primitive_col (inv : Gauss.qmat) ~k p : Vec.t =
  let col = Array.init k (fun i -> inv.(i).(p)) in
  let l = Array.fold_left (fun acc q -> Mpz.lcm acc (Q.den q)) Mpz.one col in
  let v = Array.map (fun q -> Mpz.mul (Q.num q) (fst (Mpz.divmod l (Q.den q)))) col in
  let g = Vec.gcd v in
  if Mpz.is_zero g || Mpz.is_one g then v
  else Array.map (fun x -> fst (Mpz.divmod x g)) v

(* Classify one reference along one direction of the original iteration
   space.  [vars] are the statement's loop variables outer-to-inner
   (the coordinate order of [d]); subscript deltas are exact. *)
let classify_ref ~line_elems (vars : string list) (d : Vec.t) (r : Ast.aref) : cls =
  let deltas =
    List.map
      (fun sub ->
        let acc = ref Mpz.zero in
        List.iteri
          (fun i v -> acc := Mpz.add !acc (Mpz.mul (Linexpr.coeff sub v) d.(i)))
          vars;
        !acc)
      r.Ast.index
  in
  match List.rev deltas with
  | [] -> Temporal (* scalar: always the same cell *)
  | last :: outer ->
      if Mpz.is_zero last && List.for_all Mpz.is_zero outer then Temporal
      else if List.for_all Mpz.is_zero outer then (
        match Mpz.to_int_opt (Mpz.abs last) with
        | Some s when s < line_elems -> Spatial s
        | _ -> NoReuse)
      else NoReuse

let ref_text (r : Ast.aref) = Format.asprintf "%a" Pp.pp_aref r

let mk_refs refs classes_of =
  List.mapi
    (fun i (r : Ast.aref) ->
      { array = r.Ast.array; text = ref_text r; is_write = i = 0; classes = classes_of r })
    refs

(* One statement's signature against a checked block structure.  The
   per-statement matrix is canonicalized first: classes only depend on
   the directions of T_S^-1's columns, which the row-canonical form
   preserves (Inl.Perstmt.canonical_rows). *)
let stmt_signature ~line_elems (st : Inl.Blockstruct.t) (si : Layout.stmt_info) : stmt_sig =
  let label = si.Layout.label in
  let vars = List.map (fun (_, (l : Ast.loop)) -> l.Ast.var) si.Layout.loops in
  let loops =
    List.map
      (fun (_, (l : Ast.loop)) -> l.Ast.var)
      (Inl.Blockstruct.new_stmt_info st label).Layout.loops
  in
  let refs = collect_refs si.Layout.stmt in
  let per = Inl.Perstmt.of_structure st label in
  let k = Mat.rows per.Inl.Perstmt.matrix in
  if k = 0 then
    { label; depth = 0; loops; singular = false; truncated = false;
      refs = mk_refs refs (fun _ -> [||]) }
  else
    let canon = Inl.Perstmt.canonical_rows per.Inl.Perstmt.matrix in
    match Gauss.inverse canon with
    | None ->
        { label; depth = k; loops; singular = true; truncated = false;
          refs = mk_refs refs (fun _ -> Array.make k Unknown) }
    | Some inv ->
        let dirs = Array.init k (fun p -> primitive_col inv ~k p) in
        { label; depth = k; loops; singular = false; truncated = false;
          refs =
            mk_refs refs (fun r ->
                Array.map (fun d -> classify_ref ~line_elems vars d r) dirs) }

let truncated_stmt (si : Layout.stmt_info) ~loops : stmt_sig =
  let k = List.length si.Layout.loops in
  { label = si.Layout.label; depth = k; loops; singular = false; truncated = true;
    refs = mk_refs (collect_refs si.Layout.stmt) (fun _ -> Array.make k Unknown) }

let stmt_work (si : Layout.stmt_info) : int =
  List.length (collect_refs si.Layout.stmt) * max 1 (List.length si.Layout.loops)

let compute ~line_elems ~work_budget (ctx : Inl.context) (st : Inl.Blockstruct.t) : t =
  let remaining = ref (match work_budget with None -> max_int | Some b -> max 0 b) in
  let stmts =
    List.map
      (fun (si : Layout.stmt_info) ->
        let loops =
          List.map
            (fun (_, (l : Ast.loop)) -> l.Ast.var)
            (Inl.Blockstruct.new_stmt_info st si.Layout.label).Layout.loops
        in
        let w = stmt_work si in
        if w > !remaining then truncated_stmt si ~loops
        else begin
          remaining := !remaining - w;
          stmt_signature ~line_elems st si
        end)
      ctx.Inl.layout.Layout.stmts
  in
  { line_elems; stmts }

(* ---- the process-wide memo ---- *)

let memo : t Memo.t = Memo.create ~name:"reuse memo" ~max_entries:4096 ()
let memo_stats () = Memo.stats memo
let clear_memo () = Memo.clear memo

(* The memo key must determine the stored signature bit-for-bit: the
   canonical per-statement matrices (classes depend on nothing else of
   the transformation), the rows they were read from (the rendered loop
   names depend on the positions), and the access matrices — per
   subscript, the coefficients of the statement's own iterators (offsets
   and parameters never reach a delta). *)
let memo_key ~line_elems (ctx : Inl.context) (st : Inl.Blockstruct.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "v1;le=%d" line_elems);
  List.iter
    (fun (si : Layout.stmt_info) ->
      let vars = List.map (fun (_, (l : Ast.loop)) -> l.Ast.var) si.Layout.loops in
      let per = Inl.Perstmt.of_structure st si.Layout.label in
      Buffer.add_string b (Printf.sprintf ";S=%s;rows=" si.Layout.label);
      List.iter (fun r -> Buffer.add_string b (string_of_int r ^ ",")) per.Inl.Perstmt.new_loop_rows;
      Buffer.add_string b ";T=";
      Array.iter
        (fun row ->
          Array.iter (fun x -> Buffer.add_string b (Mpz.to_string x ^ ",")) row;
          Buffer.add_char b '|')
        (Inl.Perstmt.canonical_rows per.Inl.Perstmt.matrix);
      Buffer.add_string b ";R=";
      List.iter
        (fun (r : Ast.aref) ->
          Buffer.add_string b (r.Ast.array ^ "(");
          List.iter
            (fun sub ->
              List.iter
                (fun v -> Buffer.add_string b (Mpz.to_string (Linexpr.coeff sub v) ^ ","))
                vars;
              Buffer.add_char b ';')
            r.Ast.index;
          Buffer.add_string b ")")
        (collect_refs si.Layout.stmt))
    ctx.Inl.layout.Layout.stmts;
  Buffer.contents b

let signature ?(line_elems = Opt.default Opt.line_elems) ?work_budget (ctx : Inl.context)
    (st : Inl.Blockstruct.t) : t =
  match work_budget with
  | Some _ -> compute ~line_elems ~work_budget ctx st
  | None ->
      Memo.memo memo (memo_key ~line_elems ctx st) (fun () ->
          compute ~line_elems ~work_budget:None ctx st)

(* ---- canonical key, comparisons ---- *)

let cls_key = function
  | Temporal -> "t"
  | Spatial s -> "s" ^ string_of_int s
  | NoReuse -> "n"
  | Unknown -> "u"

let ref_key (r : ref_sig) = String.concat "" (List.map cls_key (Array.to_list r.classes))

let key (t : t) : string =
  Printf.sprintf "le%d|%s" t.line_elems
    (String.concat "|"
       (List.map
          (fun s ->
            Printf.sprintf "d%d:%s" s.depth
              (String.concat ","
                 (List.sort String.compare (List.map ref_key s.refs))))
          t.stmts))

let compare a b = String.compare (key a) (key b)
let equal a b = compare a b = 0

(* ---- the score ---- *)

(* Stand-in trip count per loop level: only the relative weighting of
   statement depths matters, not the value. *)
let nominal_trip = 16.0

let cls_cost ~line_elems = function
  | Temporal -> 0.0
  | Spatial s -> float_of_int s /. float_of_int line_elems
  | NoReuse | Unknown -> 1.0

let innermost (s : stmt_sig) (r : ref_sig) : cls =
  if s.depth = 0 then Temporal else r.classes.(s.depth - 1)

let score (t : t) : float =
  List.fold_left
    (fun acc s ->
      if s.depth = 0 then acc
      else
        let weight = nominal_trip ** float_of_int s.depth in
        acc
        +. weight
           *. List.fold_left
                (fun a r -> a +. cls_cost ~line_elems:t.line_elems (innermost s r))
                0.0 s.refs)
    0.0 t.stmts

let static_score ?line_elems (ctx : Inl.context) (st : Inl.Blockstruct.t) : float =
  score (signature ?line_elems ctx st)

(* ---- the depth-weighted score ----

   [score] reads only the innermost class of each reference, which makes
   it blind to outer-dimension reuse: jki and kji matrix multiply tie
   (both stream one reference innermost) even though jki's streaming
   reference is spatial one loop further out while kji's is not.  The
   weighted cost keeps the innermost class authoritative and lets an
   outer dimension's reuse reduce the charge with a geometric discount
   [gamma^distance]: a class [c] at distance [q] from the innermost
   position contributes cost [1 - (1 - cls_cost c) * gamma^q], and the
   reference is charged the cheapest dimension.  At [q = 0] this is
   exactly [cls_cost c], so references whose best class is innermost —
   every reference the original score ranked — are charged identically;
   only ties in the innermost-only model can split. *)

let gamma = 0.5

let ref_cost_weighted ~line_elems (s : stmt_sig) (r : ref_sig) : float =
  if s.depth = 0 then 0.0
  else begin
    let best = ref infinity in
    Array.iteri
      (fun p c ->
        let discount = gamma ** float_of_int (s.depth - 1 - p) in
        let cost = 1.0 -. ((1.0 -. cls_cost ~line_elems c) *. discount) in
        if cost < !best then best := cost)
      r.classes;
    if !best = infinity then 1.0 else !best
  end

let weighted_score (t : t) : float =
  List.fold_left
    (fun acc s ->
      if s.depth = 0 then acc
      else
        let weight = nominal_trip ** float_of_int s.depth in
        acc
        +. weight
           *. List.fold_left
                (fun a r -> a +. ref_cost_weighted ~line_elems:t.line_elems s r)
                0.0 s.refs)
    0.0 t.stmts

let weighted_static_score ?line_elems (ctx : Inl.context) (st : Inl.Blockstruct.t) : float =
  weighted_score (signature ?line_elems ctx st)

let unknown_refs (t : t) : int =
  List.fold_left
    (fun acc s ->
      if s.depth = 0 then acc
      else acc + List.length (List.filter (fun r -> innermost s r = Unknown) s.refs))
    0 t.stmts

let truncated_stmts (t : t) : int =
  List.length (List.filter (fun s -> s.truncated) t.stmts)

(* ---- the analyze report ---- *)

type report = { signature : t; score : float; weighted : float; diags : Diag.t list }

let uniq_texts refs = List.sort_uniq String.compare (List.map (fun r -> r.text) refs)

let analyze ?line_elems ?work_budget (ctx : Inl.context) (st : Inl.Blockstruct.t) : report =
  let sg = signature ?line_elems ?work_budget ctx st in
  let diags = ref [] in
  let warn code fmt =
    Format.kasprintf
      (fun m -> diags := Diag.warning ~code ~phase:Diag.Analysis m :: !diags)
      fmt
  in
  List.iter
    (fun s ->
      if s.truncated then ()
      else if s.singular then
        warn "U901"
          "statement %s: singular per-statement transformation (rank < %d); reuse unknown, \
           scored pessimistically until augmentation assigns the missing loops"
          s.label s.depth
      else if s.depth > 0 then begin
        let inner_loop = List.nth_opt s.loops (s.depth - 1) in
        let inner_name = match inner_loop with Some v -> v | None -> "?" in
        let streaming = List.filter (fun r -> innermost s r = NoReuse) s.refs in
        (match uniq_texts streaming with
        | [] -> ()
        | texts ->
            warn "U101"
              "statement %s: no temporal or spatial reuse in the innermost loop %s for %s \
               (a new cache line every iteration)"
              s.label inner_name
              (String.concat ", " texts));
        List.iteri
          (fun p loop ->
            if p < s.depth - 1 then
              let hoistable =
                List.filter
                  (fun r -> innermost s r = NoReuse && r.classes.(p) = Temporal)
                  s.refs
              in
              match uniq_texts hoistable with
              | [] -> ()
              | texts ->
                  warn "U102"
                    "statement %s: loop %s carries temporal reuse for %s; permuting it \
                     innermost would hoist the reuse"
                    s.label loop
                    (String.concat ", " texts))
          s.loops
      end)
    sg.stmts;
  (match truncated_stmts sg with
  | 0 -> ()
  | n ->
      warn "U902"
        "reuse work budget exhausted: %d of %d statement(s) unclassified and scored \
         pessimistically (raise --work or --budget)"
        n (List.length sg.stmts));
  { signature = sg; score = score sg; weighted = weighted_score sg; diags = List.rev !diags }

let cls_to_string = function
  | Temporal -> "temporal"
  | Spatial s -> Printf.sprintf "spatial(%d)" s
  | NoReuse -> "none"
  | Unknown -> "unknown"

let render (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "reuse signature (cache line = %d elements):\n" r.signature.line_elems);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%s: depth %d  loops [%s]%s\n" s.label s.depth
           (String.concat "; " s.loops)
           (if s.singular then "  (singular T_S)"
            else if s.truncated then "  (budget exhausted)"
            else ""));
      List.iter
        (fun rf ->
          Buffer.add_string b
            (Printf.sprintf "  %-5s %-14s %s\n"
               (if rf.is_write then "write" else "read")
               rf.text
               (if s.depth = 0 then "scalar context (depth 0)"
                else
                  String.concat "  "
                    (List.map2
                       (fun loop c -> loop ^ ":" ^ cls_to_string c)
                       s.loops
                       (Array.to_list rf.classes)))))
        s.refs)
    r.signature.stmts;
  Buffer.add_string b (Printf.sprintf "static score: %.3f (lower is better)\n" r.score);
  Buffer.add_string b
    (Printf.sprintf "weighted score: %.3f (outer-dimension reuse discounted by %g per level)\n"
       r.weighted gamma);
  Buffer.contents b
