module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Gauss = Inl_linalg.Gauss
module Ast = Inl_ir.Ast
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout
module Pool = Inl_parallel.Pool

type options = { allow_reorder : bool; allow_reversal : bool; max_nodes : int }

let default_options = { allow_reorder = true; allow_reversal = true; max_nodes = 200_000 }

(* ---- structure enumeration ---- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (fun y -> y <> x) l)))
        l

(* Multi-child nodes of the program, with their child counts. *)
let reorder_sites (prog : Ast.program) : (Ast.path * int) list =
  let sites = ref [] in
  let rec go prefix nodes =
    let m = List.length nodes in
    if m >= 2 then sites := (prefix, m) :: !sites;
    List.iteri
      (fun i n ->
        match n with
        | Ast.Loop l -> go (prefix @ [ i ]) l.Ast.body
        | Ast.If (_, b) | Ast.Let (_, _, b) -> go (prefix @ [ i ]) b
        | Ast.Stmt _ -> ())
      nodes
  in
  go [] prog.Ast.nest;
  List.rev !sites

(* All combinations of per-site child permutations, each as a composite
   reordering matrix. *)
let reorder_matrices (layout : Layout.t) : Mat.t list =
  let sites = reorder_sites layout.Layout.program in
  let rec combos = function
    | [] -> [ [] ]
    | (path, m) :: rest ->
        let tails = combos rest in
        List.concat_map
          (fun perm -> List.map (fun tail -> (path, perm) :: tail) tails)
          (permutations (List.init m Fun.id))
  in
  (* Apply sites root-down (reorder_sites is in DFS order, so parents come
     first); after reordering at [p], remap the paths of the deeper sites
     that pass through [p]. *)
  let remap_path p perm q =
    if not (Ast.is_proper_prefix p q) then q
    else begin
      let rec go a b =
        match (a, b) with
        | [], i :: rest -> List.nth perm i :: rest
        | _ :: a', _ :: b' -> List.hd b :: go a' b'
        | _ -> assert false
      in
      go p q
    end
  in
  List.map
    (fun assignment ->
      let rec apply acc_m acc_layout = function
        | [] -> acc_m
        | (path, perm) :: rest ->
            let r = Tmat.reorder acc_layout ~parent:path ~perm in
            let m' = Mat.mul r acc_m in
            let st =
              match Blockstruct.infer acc_layout r with
              | Ok st -> st
              | Error msg -> failwith ("Completion.reorder_matrices: " ^ msg)
            in
            let rest' = List.map (fun (q, pm) -> (remap_path path perm q, pm)) rest in
            apply m' st.Blockstruct.new_layout rest'
      in
      apply (Mat.identity (Layout.size layout)) layout assignment)
    (combos sites)

(* Candidate first rows for external search drivers: one signed unit
   vector per loop column, in layout-column order. *)
let seed_rows ?(allow_reversal = true) (layout : Layout.t) : Vec.t list =
  let n = Layout.size layout in
  Array.to_list layout.Layout.positions
  |> List.mapi (fun i p -> (i, p))
  |> List.concat_map (function
       | i, Layout.Ploop _ ->
           if allow_reversal then [ Vec.unit n i; Vec.scale_int (-1) (Vec.unit n i) ]
           else [ Vec.unit n i ]
       | _ -> [])

(* Search-ordering heuristic: a loop row's "natural" columns are those
   outside its node's siblings' regions (at every ancestor level); the
   relaxed block structure allows any column (padded sibling references
   are meaningful), but natural columns are tried first. *)
let allowed_columns (layout : Layout.t) : (int, bool array) Hashtbl.t =
  let table = Hashtbl.create 8 in
  (* walk children regions: [base] is the start of the children region;
     [banned] accumulates sibling columns from enclosing levels *)
  let rec walk children base (banned : bool array) =
    let sizes = Array.of_list (List.map Layout.node_size children) in
    let starts = Layout.children_region ~base sizes in
    List.iteri
      (fun i child ->
        match child with
        | Ast.Loop l ->
            let banned' = Array.copy banned in
            Array.iteri (fun j s -> if j <> i then Array.fill banned' s sizes.(j) true) starts;
            Hashtbl.replace table starts.(i) (Array.map not banned');
            walk l.Ast.body (starts.(i) + 1) banned'
        | Ast.Stmt _ | Ast.If _ | Ast.Let _ -> ())
      children
  in
  walk layout.Layout.program.Ast.nest 0 (Array.make (Layout.size layout) false);
  table

(* ---- the search ---- *)

let complete ?(options = default_options) ?(goal = fun _ -> true) (layout : Layout.t)
    (deps : Dep.t list) ~(partial : Vec.t list) : Mat.t option =
  let n = Layout.size layout in
  let allowed_tbl = allowed_columns layout in
  (* Per-dependence legality verdicts, shared across every candidate of
     every structure: leaf checks on candidates that agree on the rows a
     dependence reads become table lookups. *)
  let lcache = Legality.make_cache () in
  let loop_cols =
    Array.to_list layout.Layout.positions
    |> List.mapi (fun i p -> (i, p))
    |> List.filter_map (function i, Layout.Ploop _ -> Some i | _ -> None)
  in
  let structures =
    if options.allow_reorder then reorder_matrices layout else [ Mat.identity n ]
  in
  let try_structure ?(abort = fun () -> false) (r : Mat.t) : Mat.t option =
    (* The node budget is per structure — not shared across the structure
       list — so the search inside one structure is independent of how
       many structures precede it and of whether structures are explored
       sequentially or in parallel. *)
    let nodes_budget = ref options.max_nodes in
    match Blockstruct.infer layout r with
    | Error _ -> None
    | Ok st ->
        let old_to_new = st.Blockstruct.old_to_new in
        let new_of_old = old_to_new in
        (* new row index -> kind *)
        let row_is_edge = Array.make n false in
        let row_old_loop = Array.make n (-1) in
        Array.iteri
          (fun old_idx pos ->
            match pos with
            | Layout.Pedge _ -> row_is_edge.(new_of_old.(old_idx)) <- true
            | Layout.Ploop _ -> row_old_loop.(new_of_old.(old_idx)) <- old_idx)
          layout.Layout.positions;
        (* template rows: edge rows come from the reorder matrix *)
        let m = Mat.make n n in
        let fixed = Array.make n false in
        Array.iteri
          (fun i flag ->
            if flag then begin
              m.(i) <- Vec.copy (Mat.row r i);
              fixed.(i) <- true
            end)
          row_is_edge;
        (* install the partial rows (the first rows of M) *)
        let ok_partial =
          List.for_all
            (fun (i, row) ->
              if row_is_edge.(i) then Vec.equal row m.(i)
              else begin
                m.(i) <- Vec.copy row;
                fixed.(i) <- true;
                true
              end)
            (List.mapi (fun i row -> (i, row)) partial)
        in
        if not ok_partial then None
        else begin
          (* per-dependence data for pruning: new positions of common
             loops, ascending *)
          let dep_info =
            List.map
              (fun (d : Dep.t) ->
                let s1 = Layout.stmt_info layout d.Dep.src
                and s2 = Layout.stmt_info layout d.Dep.dst in
                let commons =
                  Layout.common_loop_positions layout s1 s2
                  |> List.map (fun p -> new_of_old.(p))
                  |> List.sort compare
                in
                (d, commons))
              deps
          in
          let todo =
            List.init n Fun.id |> List.filter (fun i -> (not fixed.(i)) && row_old_loop.(i) >= 0)
          in
          let assigned_rows = ref (List.filter (fun i -> fixed.(i)) (List.init n Fun.id)) in
          let rec assign = function
            | [] ->
                (* authoritative check *)
                if Gauss.is_nonsingular m && goal m then
                  match Legality.check ~cache:lcache layout m deps with
                  | Legality.Legal _ -> Some (Mat.copy m)
                  | Legality.Illegal _ -> None
                else None
            | i :: rest ->
                let allowed =
                  match Hashtbl.find_opt allowed_tbl row_old_loop.(i) with
                  | Some a -> a
                  | None -> Array.make n true
                in
                let natural, other = List.partition (fun c -> allowed.(c)) loop_cols in
                let candidates =
                  List.concat_map
                    (fun c ->
                      if options.allow_reversal then
                        [ Vec.unit n c; Vec.scale_int (-1) (Vec.unit n c) ]
                      else [ Vec.unit n c ])
                    (natural @ other)
                in
                let rec try_cands = function
                  | [] -> None
                  | row :: more ->
                      if !nodes_budget <= 0 || abort () then None
                      else begin
                        decr nodes_budget;
                        (* independence w.r.t. already assigned rows *)
                        let current = Array.of_list (List.map (fun j -> m.(j)) !assigned_rows) in
                        let indep = Gauss.rank (Mat.append_row current row) > Gauss.rank current in
                        if not indep then try_cands more
                        else begin
                          m.(i) <- row;
                          fixed.(i) <- true;
                          assigned_rows := i :: !assigned_rows;
                          (* prune: any dependence certainly violated? *)
                          let violated =
                            List.exists
                              (fun ((d : Dep.t), commons) ->
                                (* only the contiguous assigned prefix of
                                   the common rows is meaningful *)
                                let rec take_prefix = function
                                  | p :: rest when fixed.(p) ->
                                      Legality.image m.(p) d.Dep.vector :: take_prefix rest
                                  | _ -> []
                                in
                                Legality.classify (take_prefix commons) = Legality.Violated)
                              dep_info
                          in
                          let result = if violated then None else assign rest in
                          match result with
                          | Some _ as r -> r
                          | None ->
                              fixed.(i) <- false;
                              assigned_rows := List.tl !assigned_rows;
                              m.(i) <- Vec.zero n;
                              try_cands more
                        end
                      end
                in
                try_cands candidates
          in
          assign todo
        end
  in
  (* Keep the first success in structure order.  [winner] holds the
     lowest structure index known to succeed; structures after it abort
     their search early, structures before it always run to completion
     (per-structure node budgets make each exploration independent), so
     the selected matrix never depends on timing.  At one job [Pool.map]
     is [List.map] on the calling domain, and every structure after the
     first success is skipped. *)
  let winner = Atomic.make max_int in
  let rec cas_min i =
    let cur = Atomic.get winner in
    if i < cur && not (Atomic.compare_and_set winner cur i) then cas_min i
  in
  let results =
    Pool.map
      (fun (idx, r) ->
        if Atomic.get winner < idx then None
        else begin
          let res = try_structure ~abort:(fun () -> Atomic.get winner < idx) r in
          (match res with Some _ -> cas_min idx | None -> ());
          res
        end)
      (List.mapi (fun i r -> (i, r)) structures)
  in
  List.find_map Fun.id results
