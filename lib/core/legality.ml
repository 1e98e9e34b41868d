module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Interval = Inl_presburger.Interval
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout
module Memo = Inl_diag.Memo

type verdict =
  | Legal of { structure : Blockstruct.t; unsatisfied : Dep.t list }
  | Illegal of string

(* Definition 6's lexicographic test on an interval box, exact: a
   coordinate that is definitely positive satisfies everything after it;
   one that is non-negative (zero, or spanning [0, hi]) may be zero, and
   a positive value settles the box while zero defers to the suffix, so
   the box is exactly as good as its suffix; anything admitting a
   negative value violates, since everything before it may be zero. *)
type lex_class = Satisfied | Possibly_zero | Violated

let rec classify : Interval.t list -> lex_class = function
  | [] -> Possibly_zero
  | x :: rest ->
      if Interval.definitely_positive x then Satisfied
      else if Interval.definitely_nonneg x then classify rest
      else Violated

let image (row : Vec.t) (v : Interval.t array) : Interval.t =
  let acc = ref (Interval.point Inl_num.Mpz.zero) in
  Array.iteri (fun j x -> acc := Interval.add !acc (Interval.scale row.(j) x)) v;
  !acc

(* Per-dependence outcome; [Dep_violated] carries the Illegal message. *)
type dep_verdict = Dep_satisfied | Dep_unsatisfied | Dep_violated of string

(* Everything the verdict of one dependence reads from the candidate: the
   matrix rows at the new positions of its common loops (outer-to-inner),
   and (for cross-statement dependences) whether the source precedes the
   target in the transformed AST.  Memoizing on this lets the completion
   search reuse verdicts across candidate matrices that share the
   relevant rows.  The rows are native ints, converted once per
   candidate (a matrix with an entry beyond a native int is classified
   without the tables), and flattened: every row has one entry per
   layout position, as many as the dependence vector, so nothing is
   lost.  The dependence's hash is taken once per {!env}; the keys of one
   search share the dependence value, so comparing it is a pointer test. *)
module Key = struct
  type t = { k_dep : Dep.t; k_dep_hash : int; k_rows : int array; k_src_precedes : bool }

  let equal a b =
    (a.k_dep == b.k_dep || (a.k_dep_hash = b.k_dep_hash && Dep.compare a.k_dep b.k_dep = 0))
    && a.k_src_precedes = b.k_src_precedes
    && a.k_rows = b.k_rows

  (* Folds in every row entry: [Hashtbl.hash] stops after ten meaningful
     words, so keys differing only in late rows would share a bucket. *)
  let hash k =
    Array.fold_left
      (fun h x -> (h * 31) + x)
      ((k.k_dep_hash * 2) + Bool.to_int k.k_src_precedes)
      k.k_rows
end

module Dep_memo = Memo.Make (Key)

type cache = dep_verdict Dep_memo.t

(* Unnamed, so outside the registry and untouched by --no-cache, and
   unbounded: it dies with its search. *)
let make_cache () = Dep_memo.create ~max_entries:max_int ()

(* ---- the process-wide verdict memo ----

   Second lookup tier behind the per-search [cache], on the same keys.  A
   per-search cache dies with its search; this table survives across
   searches and passes, so a re-search of a known program classifies by
   lookup.  Verdict strings are deterministic functions of the key, so
   sharing across worker domains preserves the byte-identity contract. *)

let verdict_memo : dep_verdict Dep_memo.t =
  Dep_memo.create ~name:"legality memo" ~max_entries:8192 ()

let memo_stats () = Dep_memo.stats verdict_memo
let clear_memo () = Dep_memo.clear verdict_memo

let classify_rows (d : Dep.t) (rows : Vec.t list) (src_precedes : bool) : dep_verdict =
  match classify (List.map (fun row -> image row d.Dep.vector) rows) with
  | Satisfied -> Dep_satisfied
  | Violated ->
      Dep_violated
        (Format.asprintf "dependence %a maps to a possibly lexicographically negative vector"
           Dep.pp d)
  | Possibly_zero ->
      if String.equal d.src d.dst then Dep_unsatisfied
      else if src_precedes then Dep_satisfied
      else
        Dep_violated
          (Format.asprintf
             "dependence %a can collapse to equal common-loop iterations, but %s does not \
              precede %s in the transformed program"
             Dep.pp d d.src d.dst)

(* Static description of the dependences: everything a per-candidate
   check reads that does not depend on the candidate.  A search builds it
   once; {!check} once per call. *)
type env = {
  e_layout : Layout.t;
  e_deps : Dep.t array;
  e_hashes : int array;  (* dependence hashes, for the memo keys *)
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
    e_hashes = Array.map Hashtbl.hash arr;
    e_commons =
      Array.map (fun (d : Dep.t) -> Layout.common_loop_positions layout (info d.Dep.src) (info d.Dep.dst)) arr;
    e_src_path = Array.map (fun (d : Dep.t) -> (info d.Dep.src).Layout.path) arr;
    e_dst_path = Array.map (fun (d : Dep.t) -> (info d.Dep.dst).Layout.path) arr;
    e_same_stmt = Array.map (fun (d : Dep.t) -> String.equal d.Dep.src d.Dep.dst) arr;
    e_loop_positions = Layout.loop_positions layout;
  }

(* Does dependence [i]'s source precede its target in the transformed
   program? *)
let precedes env (structure : Blockstruct.t) i =
  env.e_same_stmt.(i)
  ||
  let sp = Blockstruct.map_path structure env.e_src_path.(i) in
  let dp = Blockstruct.map_path structure env.e_dst_path.(i) in
  Inl_ir.Ast.syntactic_compare sp dp < 0

(* The candidate's rows in native ints, or [None] past a native int. *)
let int_rows (m : Mat.t) = lazy (try Some (Array.map Vec.to_int_array m) with Failure _ -> None)

(* Lookup ladder for dependence [i], its common loops taken at their new
   positions, outer-to-inner: per-search cache, then (with [~shared]) the
   process-wide memo, then the interval arithmetic. *)
let classify_one ?cache ~shared env (structure : Blockstruct.t) m im i src_precedes : dep_verdict =
  let d = env.e_deps.(i) in
  let commons =
    List.sort Int.compare (List.map (Array.get structure.Blockstruct.old_to_new) env.e_commons.(i))
  in
  let compute () = classify_rows d (List.map (Mat.row m) commons) src_precedes in
  match if shared || Option.is_some cache then Lazy.force im else None with
  | None -> compute ()
  | Some im -> (
      let key =
        {
          Key.k_dep = d;
          k_dep_hash = env.e_hashes.(i);
          k_rows = Array.concat (List.map (Array.get im) commons);
          k_src_precedes = src_precedes;
        }
      in
      let compute () = if shared then Dep_memo.memo verdict_memo key compute else compute () in
      match cache with None -> compute () | Some c -> Dep_memo.memo c key compute)

let check ?cache (layout : Layout.t) (m : Mat.t) (deps : Dep.t list) : verdict =
  match Blockstruct.infer layout m with
  | Error msg -> Illegal ("block structure: " ^ msg)
  | Ok structure -> (
      let env = make_env layout deps in
      let im = int_rows m in
      (* stop classifying at the first offender in dependence order *)
      let exception Offender of string in
      let unsat = ref [] in
      try
        Array.iteri
          (fun i d ->
            let src_precedes = precedes env structure i in
            match classify_one ?cache ~shared:false env structure m im i src_precedes with
            | Dep_satisfied -> ()
            | Dep_unsatisfied -> unsat := d :: !unsat
            | Dep_violated msg -> raise (Offender msg))
          env.e_deps;
        Legal { structure; unsatisfied = List.rev !unsat }
      with Offender msg -> Illegal msg)

let is_legal ?cache layout m deps =
  match check ?cache layout m deps with Legal _ -> true | Illegal _ -> false

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

let check_env ?cache ?parent ?rows (env : env) (m : Mat.t) : verdict * summary option =
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
        | _ -> Array.init nd (precedes env structure)
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
      let im = match rows with Some r -> Lazy.from_val (Some r) | None -> int_rows m in
      let exception Offender of string in
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
                  classify_one ?cache ~shared:true env structure m im i src_precedes.(i)
            in
            verdicts.(i) <- v;
            match v with Dep_violated msg -> raise (Offender msg) | _ -> ()
          done;
          let unsat = ref [] in
          for i = nd - 1 downto 0 do
            if verdicts.(i) = Dep_unsatisfied then unsat := env.e_deps.(i) :: !unsat
          done;
          Legal { structure; unsatisfied = !unsat }
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
