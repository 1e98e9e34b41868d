module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Interval = Inl_presburger.Interval
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout
module Pool = Inl_parallel.Pool
module Memo = Inl_diag.Memo

type verdict =
  | Legal of { structure : Blockstruct.t; unsatisfied : Dep.t list }
  | Illegal of string

let transformed_vector (m : Mat.t) (d : Dep.t) : Interval.t array =
  Array.init (Mat.rows m) (fun i ->
      let acc = ref (Interval.point Inl_num.Mpz.zero) in
      Array.iteri
        (fun j dj -> acc := Interval.add !acc (Interval.scale (Mat.get m i j) dj))
        d.Dep.vector;
      !acc)

(* Is the interval-vector box certainly lexicographically non-negative,
   and can it be entirely zero?  Scan: a coordinate that is definitely
   positive satisfies everything after it; one that is definitely zero is
   skipped; one that spans [0, hi] may be zero, so the suffix must also
   pass; anything admitting a negative value fails. *)
type lex_class = Satisfied | Possibly_zero | Violated

let classify (p : Interval.t array) : lex_class =
  let n = Array.length p in
  let rec go i =
    if i >= n then Possibly_zero
    else begin
      let x = p.(i) in
      if Interval.definitely_zero x then go (i + 1)
      else if Interval.definitely_positive x then Satisfied
      else if Interval.definitely_nonneg x then
        (* could be zero or positive: positive settles it, zero defers to
           the suffix — so the suffix must pass on its own *)
        match go (i + 1) with Satisfied -> Satisfied | Possibly_zero -> Possibly_zero | Violated -> Violated
      else Violated
    end
  in
  go 0

(* Per-dependence outcome; [Dep_violated] carries the Illegal message. *)
type dep_verdict = Dep_satisfied | Dep_unsatisfied | Dep_violated of string

(* Everything the verdict of one dependence reads from the candidate: the
   matrix rows at the new positions of its common loops (outer-to-inner),
   and (for cross-statement dependences) whether the source precedes the
   target in the transformed AST.  Memoizing on this tuple lets the
   completion search reuse verdicts across candidate matrices that share
   the relevant rows.  All components are canonical values (Mpz is
   sign-magnitude without redundant forms), so polymorphic hashing and
   equality are exact. *)
type dep_key = { k_dep : Dep.t; k_rows : Vec.t list; k_src_precedes : bool }

module Dep_memo = Memo.Make (struct
  type t = dep_key

  (* [compare], not [( = )]: it skips physically shared subterms, and
     every key of one dependence shares its [k_dep] *)
  let equal a b = compare a b = 0

  (* The rows are hashed entry by entry: [Hashtbl.hash] of the whole key
     exhausts its budget of meaningful words inside [k_dep], so every key
     of one dependence would share a bucket. *)
  let hash k =
    List.fold_left
      (fun h row -> Array.fold_left (fun h x -> (h * 31) + Hashtbl.hash x) h row)
      (Hashtbl.hash (k.k_dep, k.k_src_precedes))
      k.k_rows
end)

type cache = dep_verdict Dep_memo.t

(* Unnamed, so outside the registry and untouched by --no-cache, and
   unbounded: it dies with its search. *)
let make_cache () = Dep_memo.create ~max_entries:max_int ()

(* ---- the process-wide verdict memo ----

   Second lookup tier behind the per-search [cache]: a named memo keyed
   on a string rendering of exactly what [classify_key] reads — the
   dependence (its endpoints, kind, level and interval vector) and the
   candidate's rows at the new positions of the dependence's common
   loops, plus the transformed syntactic order.  A per-search cache dies
   with its search; this table survives across searches and passes, so a
   re-search of a known program classifies by lookup.  Verdict strings
   are deterministic functions of the key, so sharing across worker
   domains preserves the byte-identity contract. *)

let verdict_memo : dep_verdict Memo.t = Memo.create ~name:"legality memo" ~max_entries:8192 ()
let memo_stats () = Memo.stats verdict_memo
let clear_memo () = Memo.clear verdict_memo

let bound_to_string = function
  | Interval.NegInf -> "-inf"
  | Interval.PosInf -> "+inf"
  | Interval.Fin z -> Inl_num.Mpz.to_string z

(* Canonical rendering of one dependence, computed once per dependence
   per environment (never per candidate). *)
let dep_id (d : Dep.t) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b d.Dep.src;
  Buffer.add_char b '>';
  Buffer.add_string b d.Dep.dst;
  Buffer.add_char b ':';
  Buffer.add_string b d.Dep.array;
  Buffer.add_char b ':';
  Buffer.add_string b (Dep.kind_to_string d.Dep.kind);
  Buffer.add_char b ':';
  Buffer.add_string b (Dep.level_to_string d.Dep.level);
  Buffer.add_char b (if d.Dep.approximate then '~' else '=');
  Array.iter
    (fun (iv : Interval.t) ->
      Buffer.add_string b (bound_to_string iv.Interval.lo);
      Buffer.add_char b ',';
      Buffer.add_string b (bound_to_string iv.Interval.hi);
      Buffer.add_char b ';')
    d.Dep.vector;
  Buffer.contents b

let memo_key ~(id : string) (rows : Vec.t list) (src_precedes : bool) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b id;
  Buffer.add_char b (if src_precedes then '<' else '|');
  List.iter
    (fun (row : Vec.t) ->
      Array.iter
        (fun x ->
          Buffer.add_string b (Inl_num.Mpz.to_string x);
          Buffer.add_char b ',')
        row;
      Buffer.add_char b '/')
    rows;
  Buffer.contents b

let row_coord (row : Vec.t) (d : Dep.t) : Interval.t =
  let acc = ref (Interval.point Inl_num.Mpz.zero) in
  Array.iteri (fun j dj -> acc := Interval.add !acc (Interval.scale row.(j) dj)) d.Dep.vector;
  !acc

let classify_key (k : dep_key) : dep_verdict =
  let d = k.k_dep in
  let p = Array.of_list (List.map (fun row -> row_coord row d) k.k_rows) in
  match classify p with
  | Satisfied -> Dep_satisfied
  | Violated ->
      Dep_violated
        (Format.asprintf "dependence %a maps to a possibly lexicographically negative vector"
           Dep.pp d)
  | Possibly_zero ->
      if String.equal d.src d.dst then Dep_unsatisfied
      else if k.k_src_precedes then Dep_satisfied
      else
        Dep_violated
          (Format.asprintf
             "dependence %a can collapse to equal common-loop iterations, but %s does not \
              precede %s in the transformed program"
             Dep.pp d d.src d.dst)

(* Lookup ladder for one classified key: per-search structural cache,
   then the process-wide memo (when the caller knows the dependence's
   canonical id), then the interval arithmetic. *)
let classify_cached ?cache ?id (key : dep_key) : dep_verdict =
  let compute () =
    match id with
    | None -> classify_key key
    | Some id ->
        Memo.memo verdict_memo (memo_key ~id key.k_rows key.k_src_precedes) (fun () ->
            classify_key key)
  in
  match cache with None -> compute () | Some c -> Dep_memo.memo c key compute

let classify_dep ?cache ?id (layout : Layout.t) (structure : Blockstruct.t) (m : Mat.t)
    (d : Dep.t) : dep_verdict =
  let s_src = Layout.stmt_info layout d.src and s_dst = Layout.stmt_info layout d.dst in
  (* common loops in the transformed program: map old loop positions,
     then order by new position (outer-to-inner) *)
  let commons =
    Layout.common_loop_positions layout s_src s_dst
    |> List.map (fun old_pos -> structure.Blockstruct.old_to_new.(old_pos))
    |> List.sort compare
  in
  let src_precedes =
    String.equal d.src d.dst
    ||
    let p_src = Blockstruct.map_path structure s_src.Layout.path in
    let p_dst = Blockstruct.map_path structure s_dst.Layout.path in
    Inl_ir.Ast.syntactic_compare p_src p_dst < 0
  in
  let key =
    {
      k_dep = d;
      (* copied: candidate matrices are mutated in place by the search,
         and a key must not change under a stored entry *)
      k_rows = List.map (fun i -> Vec.copy (Mat.row m i)) commons;
      k_src_precedes = src_precedes;
    }
  in
  classify_cached ?cache ?id key

let check ?(jobs = 1) ?cache (layout : Layout.t) (m : Mat.t) (deps : Dep.t list) : verdict =
  match Blockstruct.infer layout m with
  | Error msg -> Illegal ("block structure: " ^ msg)
  | Ok structure ->
      let finish verdicts =
        (* first offender in dependence order, whatever the schedule *)
        let rec scan unsat = function
          | [] -> Legal { structure; unsatisfied = List.rev unsat }
          | (d, v) :: rest -> (
              match v with
              | Dep_satisfied -> scan unsat rest
              | Dep_unsatisfied -> scan (d :: unsat) rest
              | Dep_violated msg -> Illegal msg)
        in
        scan [] verdicts
      in
      if jobs > 1 then
        finish
          (Pool.map ~jobs (fun d -> (d, classify_dep ?cache layout structure m d)) deps)
      else begin
        (* sequential path: stop classifying at the first violation *)
        let exception Offender of string in
        try
          let unsat =
            List.fold_left
              (fun unsat d ->
                match classify_dep ?cache layout structure m d with
                | Dep_satisfied -> unsat
                | Dep_unsatisfied -> d :: unsat
                | Dep_violated msg -> raise (Offender msg))
              [] deps
          in
          Legal { structure; unsatisfied = List.rev unsat }
        with Offender msg -> Illegal msg
      end

let is_legal ?jobs ?cache layout m deps =
  match check ?jobs ?cache layout m deps with Legal _ -> true | Illegal _ -> false

(* ---- incremental (delta) checking ----

   A beam search extends a known-legal parent by one move.  The verdict
   of one dependence is a pure function of (a) the candidate's rows at
   the new positions of the dependence's common loops, taken in new
   outer-to-inner order, and (b) for cross-statement dependences, the
   transformed syntactic order of its endpoints.  So whenever every
   common loop of a dependence sits at the same new position with the
   same row in parent and child, and both endpoints map to the same
   paths, the child's verdict provably equals the parent's and is
   inherited without touching the interval arithmetic or any table.
   Anything short of that proof falls back to the full classification
   ladder — the delta never weakens the check, it only skips re-deriving
   verdicts whose inputs are bit-identical. *)

(* Static (per-search) description of the dependences: everything a
   per-candidate check reads that does not depend on the candidate. *)
type env = {
  e_layout : Layout.t;
  e_deps : Dep.t array;
  e_ids : string array;  (* canonical dependence renderings, for the memo *)
  e_commons : int list array;  (* old loop positions common to the endpoints *)
  e_src_path : Inl_ir.Ast.path array;
  e_dst_path : Inl_ir.Ast.path array;
  e_same_stmt : bool array;
  e_loop_positions : int list;
}

let make_env (layout : Layout.t) (deps : Dep.t list) : env =
  let arr = Array.of_list deps in
  let info l = Layout.stmt_info layout l in
  {
    e_layout = layout;
    e_deps = arr;
    e_ids = Array.map dep_id arr;
    e_commons =
      Array.map (fun (d : Dep.t) -> Layout.common_loop_positions layout (info d.Dep.src) (info d.Dep.dst)) arr;
    e_src_path = Array.map (fun (d : Dep.t) -> (info d.Dep.src).Layout.path) arr;
    e_dst_path = Array.map (fun (d : Dep.t) -> (info d.Dep.dst).Layout.path) arr;
    e_same_stmt = Array.map (fun (d : Dep.t) -> String.equal d.Dep.src d.Dep.dst) arr;
    e_loop_positions = Layout.loop_positions layout;
  }

(* Everything the delta test compares between a parent and a child: per
   old loop position its new position and the candidate's row there, the
   statement permutations of the block structure (the sole input of
   [Blockstruct.map_path], so equal perms imply every mapped path — and
   every syntactic order — is equal), the per-dependence transformed
   orders, and the verdicts themselves.  Only built for Legal candidates
   (a violated or structurally broken candidate is never extended). *)
type summary = {
  y_new_pos : (int * Vec.t) option array;  (* indexed by old position *)
  y_perms : (Inl_ir.Ast.path * int array) list;  (* structure.perms *)
  y_src_precedes : bool array;  (* per dep, in the transformed program *)
  y_verdicts : dep_verdict array;
}

(* atomics: [check_env] runs concurrently on Pool worker domains, and the
   totals are deterministic (a sum over candidates) regardless of
   schedule *)
let delta_inherited = Atomic.make 0
let delta_checked = Atomic.make 0
let delta_stats () = (Atomic.get delta_inherited, Atomic.get delta_checked)

let reset_delta_stats () =
  Atomic.set delta_inherited 0;
  Atomic.set delta_checked 0

let check_env ?cache ?parent (env : env) (m : Mat.t) : verdict * summary option =
  match Blockstruct.infer env.e_layout m with
  | Error msg -> (Illegal ("block structure: " ^ msg), None)
  | Ok structure ->
      let n = Array.length structure.Blockstruct.old_to_new in
      let new_pos = Array.make n None in
      List.iter
        (fun old_pos ->
          let p = structure.Blockstruct.old_to_new.(old_pos) in
          new_pos.(old_pos) <- Some (p, Mat.row m p))
        env.e_loop_positions;
      let nd = Array.length env.e_deps in
      (* Transformed syntactic order per dependence.  [map_path] reads
         only [structure.perms], so when the parent's perms are equal the
         parent's array is reused verbatim (the common case: only reorder
         moves permute statements) — no path is mapped at all. *)
      let src_precedes =
        match parent with
        | Some py when py.y_perms = structure.Blockstruct.perms -> py.y_src_precedes
        | _ ->
            Array.init nd (fun i ->
                env.e_same_stmt.(i)
                ||
                let sp = Blockstruct.map_path structure env.e_src_path.(i) in
                let dp = Blockstruct.map_path structure env.e_dst_path.(i) in
                Inl_ir.Ast.syntactic_compare sp dp < 0)
      in
      (* Old loop positions whose (new position, row) pair differs from
         the parent's — computed once per candidate, so the per-dep
         inherit test is a boolean scan of its commons instead of
         repeated row comparisons. *)
      let changed =
        match parent with
        | None -> [||]
        | Some py ->
            let c = Array.make n false in
            List.iter
              (fun old_pos ->
                c.(old_pos) <-
                  (match (py.y_new_pos.(old_pos), new_pos.(old_pos)) with
                  | Some (pp, prow), Some (cp, crow) ->
                      not (pp = cp && Vec.equal prow crow)
                  | _ -> true))
              env.e_loop_positions;
            c
      in
      let verdicts = Array.make nd Dep_satisfied in
      let exception Offender of string in
      let classify_one i =
        let d = env.e_deps.(i) in
        let commons =
          env.e_commons.(i)
          |> List.map (fun old_pos -> structure.Blockstruct.old_to_new.(old_pos))
          |> List.sort compare
        in
        let key =
          {
            k_dep = d;
            k_rows = List.map (fun p -> Vec.copy (Mat.row m p)) commons;
            k_src_precedes = src_precedes.(i);
          }
        in
        classify_cached ?cache ~id:env.e_ids.(i) key
      in
      let result =
        try
          for i = 0 to nd - 1 do
            let inherited =
              match parent with
              | None -> None
              | Some py ->
                  let rows_unchanged =
                    List.for_all (fun old_pos -> not changed.(old_pos)) env.e_commons.(i)
                  in
                  let order_unchanged =
                    env.e_same_stmt.(i) || py.y_src_precedes.(i) = src_precedes.(i)
                  in
                  if rows_unchanged && order_unchanged then Some py.y_verdicts.(i) else None
            in
            let v =
              match inherited with
              | Some v ->
                  Atomic.incr delta_inherited;
                  v
              | None ->
                  Atomic.incr delta_checked;
                  classify_one i
            in
            verdicts.(i) <- v;
            match v with Dep_violated msg -> raise (Offender msg) | _ -> ()
          done;
          let unsat =
            Array.to_list
              (Array.of_seq
                 (Seq.filter_map
                    (fun i ->
                      match verdicts.(i) with
                      | Dep_unsatisfied -> Some env.e_deps.(i)
                      | _ -> None)
                    (Seq.init nd Fun.id)))
          in
          Legal { structure; unsatisfied = unsat }
        with Offender msg -> Illegal msg
      in
      let summary =
        match result with
        | Legal _ ->
            Some
              {
                y_new_pos = new_pos;
                y_perms = structure.Blockstruct.perms;
                y_src_precedes = src_precedes;
                y_verdicts = verdicts;
              }
        | Illegal _ -> None
      in
      (result, summary)
