module Tf = Inl_fuzz.Tf
module Rng = Inl_fuzz.Rng
module Diag = Inl_diag.Diag
module Stats = Inl_diag.Stats
module Watchdog = Inl_diag.Watchdog
module Sigint = Inl_diag.Sigint
module Cachesim = Inl_cachesim.Cachesim
module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify
module Ast = Inl_ir.Ast
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Layout = Inl_instance.Layout
module Dep = Inl_depend.Dep
module Pool = Inl_parallel.Pool
module Omega = Inl_presburger.Omega
module Reuse = Inl_reuse.Reuse
module Memo = Inl_diag.Memo
module Opt = Inl_diag.Opt

type config = {
  beam : int;
  depth : int;
  finalists : int;
  size : int;
  seed : int;
  max_moves : int;
  cache : Cachesim.config;
  sim_max_steps : int;
}

let default_config =
  {
    beam = Opt.default Opt.beam;
    depth = Opt.default Opt.depth;
    finalists = Opt.default Opt.finalists;
    size = Opt.default Opt.size;
    seed = Opt.default Opt.seed;
    max_moves = 64;
    cache = Cachesim.set_associative ~capacity_bytes:8192 ~line_bytes:64 ~assoc:2;
    sim_max_steps = 4_000_000;
  }

(* Incremental evaluation made candidates cheap enough to spend the
   reclaimed time on coverage: kernels with at least [widen_threshold]
   loop-plus-statement columns get a wider beam and one more move
   generation by default (explicit --beam/--depth always win). *)
let widen_threshold = 8

let config_for ?(base = default_config) (ctx : Inl.context) : config =
  if Layout.size ctx.Inl.layout >= widen_threshold then { base with beam = 12; depth = 4 }
  else base

let configure ?ctx ?beam ?depth ?finalists ?size ?seed () : config =
  let base = match ctx with Some ctx -> config_for ctx | None -> default_config in
  let pick o given default =
    match Option.map (Opt.check o) given with
    | None -> default
    | Some r -> Result.fold ~ok:Fun.id ~error:invalid_arg r
  in
  let beam = pick Opt.beam beam base.beam in
  let depth = pick Opt.depth depth base.depth in
  let finalists = pick Opt.finalists finalists base.finalists in
  let size = pick Opt.size size base.size in
  let seed = pick Opt.seed seed base.seed in
  { base with beam; depth; finalists; size; seed }

type entry = {
  rank : int;
  recipe : Tf.t;
  static_score : float;
  misses : int option;
  accesses : int option;
  program : Ast.program option;
}

type funnel = {
  generated : int;
  materialize_failed : int;
  duplicate : int;
  illegal : int;
  scored : int;
  reuse_classes : int;
  reuse_pruned : int;
  simulated : int;
  sim_shared : int;
  sim_skipped : int;
}

type outcome = {
  entries : entry list;
  winner : entry option;
  winner_doall : int option;
  source_misses : int option;
  source_accesses : int option;
  diags : Diag.t list;
  funnel : funnel;
}

let recipe_line (t : Tf.t) : string =
  if t.Tf.partial <> [] then
    String.concat " "
      ("complete"
      :: List.map
           (fun row ->
             Printf.sprintf "row=[%s]" (String.concat "," (List.map string_of_int row)))
           t.Tf.partial)
  else if t.Tf.steps = [] then "identity"
  else
    String.concat "; "
      (List.map
         (fun step ->
           let kind, spec = Inl.Pipeline.spec_of_step step in
           kind ^ " " ^ spec)
         t.Tf.steps)

(* ---- search states ---- *)

(* What the static tier keeps of a candidate's reuse signature. *)
type static = {
  score : float;
  sig_key : string;  (** canonical reuse-signature key (Inl_reuse) *)
  unknown_refs : int;  (** references scored pessimistically (singular T_S) *)
}

(* A live (legal) state of the beam.  Completion-seeded states are not
   extendable: the Tf format keeps completion rows and pipeline steps
   mutually exclusive so recipes stay replayable, and appending a step
   to a derived matrix has no recipe representation. *)
type state = {
  s_recipe : Tf.t;
  mutable s_key : string option;
      (** recipe text, the tie-breaker: [recipe_key] prints it on the
          calling domain when a tie first needs it *)
  s_rows : int array array;  (** the matrix in native ints, the duplicate key *)
  s_structure : Inl.Blockstruct.t;
  s_unsatisfied : Dep.t list;
  s_static : static;
  s_extendable : bool;
  s_summary : Inl.Legality.summary option;
      (** per-dependence verdicts of this (legal) state, inherited by its
          children wherever a move leaves a dependence's inputs unchanged *)
}

(* Worker-side evaluation result; pure linear algebra and interval
   legality only, safe to fan out over the Pool. *)
type eval = Emat_failed of string | Eillegal of string | Elegal of state

let recipe_key st =
  if st.s_key = None then st.s_key <- Some (Tf.to_string st.s_recipe);
  Option.get st.s_key

let compare_static a b =
  match Float.compare a.s_static.score b.s_static.score with
  | 0 -> String.compare (recipe_key a) (recipe_key b)
  | c -> c

let evaluate (env : Inl.Legality.env) (lcache : Inl.Legality.cache) ~extendable ?parent
    (recipe : Tf.t) ~(materialize : Tf.t -> (Mat.t, string) result)
    ~(signature : Inl.Blockstruct.t -> int array array -> static) : eval =
  (* the keys read the matrix in native ints: converted once, here *)
  match Result.map (fun m -> (m, Array.map Vec.to_int_array m)) (materialize recipe) with
  | Error msg -> Emat_failed msg
  | exception e -> Emat_failed (Printexc.to_string e)
  | Ok (m, rows) -> (
      (* delta legality: verdicts whose inputs the move left untouched
         are inherited from the parent; the rest re-classify through the
         per-search cache and the process-wide verdict memo *)
      match Inl.Legality.check_env ~cache:lcache ?parent ~rows env m with
      | Inl.Legality.Illegal reason, _ -> Eillegal reason
      | Inl.Legality.Legal { structure; unsatisfied }, summary ->
          Elegal
            {
              s_recipe = recipe;
              s_key = None;
              s_rows = rows;
              s_structure = structure;
              s_unsatisfied = unsatisfied;
              (* the reuse signature is memoized process-wide on canonical
                 access/transformation matrices, so locality-equivalent
                 candidates — and re-searches of the same program — score
                 by table lookup from any worker domain *)
              s_static = signature structure rows;
              s_extendable = extendable;
              s_summary = summary;
            })

(* ---- materialization memo ----

   Process-wide (registered Inl_diag.Memo tables).  Step recipes are
   materialized incrementally: [pipe_memo] holds, per (program, step
   prefix), the accumulated matrix and intermediate layout of
   {!Inl.Pipeline}'s left-to-right composition, so a child candidate —
   its parent's recipe plus one move — looks its prefix up and pays for
   exactly one step build/multiply/infer.  The chain replicates
   [Tf.materialize]'s computation step for step, so the matrices are
   bit-identical to a cold materialization (the replay contract of
   [inltool apply] depends on this).  Completion recipes memoize the
   full completion result keyed on the exact dependence set.  Errors are
   memoized too: a prefix that fails against the program shape fails for
   every candidate sharing it.

   Keys are structural.  The program enters them as its printed text
   (with its serialized dependences, for completion), made and hashed
   once per search: the keys of one search share the string, so
   comparing programs is a pointer test within a search and one memcmp
   across searches.  The rest of a key — a step list or
   matrix rows — is hashed entry by entry ([Hashtbl.hash] stops after
   ten meaningful words, so long keys would share buckets). *)

module Key = struct
  type prog_id = { text : string; hash : int }

  let prog_id text = { text; hash = Hashtbl.hash text }

  type t = { k_prog : prog_id; k_steps : Inl.Pipeline.step list; k_rows : int array array }

  let equal a b =
    (a.k_prog == b.k_prog
    || (a.k_prog.hash = b.k_prog.hash && String.equal a.k_prog.text b.k_prog.text))
    && a.k_steps = b.k_steps && a.k_rows = b.k_rows

  let hash k =
    let h = List.fold_left (fun h step -> (h * 31) + Hashtbl.hash step) k.k_prog.hash k.k_steps in
    Array.fold_left (Array.fold_left (fun h x -> (h * 31) + x)) h k.k_rows
end

module Key_memo = Memo.Make (Key)

let pipe_memo : (Mat.t * Layout.t, string) result Key_memo.t =
  Key_memo.create ~name:"pipe memo" ~max_entries:8192 ()

let complete_memo : (Mat.t, string) result Key_memo.t =
  Key_memo.create ~name:"complete memo" ~max_entries:1024 ()

(* Front tier of the reuse-signature memo: keyed on the raw candidate
   matrix instead of the canonical per-statement rows (whose computation
   is most of a signature lookup's cost), and holding the score and key
   the static tier reads.  Misses fall through to Inl_reuse's canonical
   memo, which still collapses locality-equivalent matrices. *)
let sig_memo : static Key_memo.t = Key_memo.create ~name:"sig memo" ~max_entries:4096 ()
let mat_cache_stats () = Key_memo.stats pipe_memo
let completion_cache_stats () = Key_memo.stats complete_memo

(* [init @ [last]] split; steps lists are short (one per generation). *)
let split_last steps =
  match List.rev steps with
  | [] -> invalid_arg "split_last"
  | last :: rev_init -> (List.rev rev_init, last)

let materialize_steps ~(prog : Key.prog_id) (ctx : Inl.context) (steps : Inl.Pipeline.step list) :
    (Mat.t, string) result =
  let layout0 = ctx.Inl.layout in
  let rec prefix steps : (Mat.t * Layout.t, string) result =
    match steps with
    | [] -> Ok (Mat.identity (Layout.size layout0), layout0)
    | _ ->
        Key_memo.memo pipe_memo { k_prog = prog; k_steps = steps; k_rows = [||] } (fun () ->
            let init, step = split_last steps in
            match prefix init with
            | Error _ as e -> e
            | Ok (acc, layout) ->
                Result.map_error Diag.list_to_string (Inl.Pipeline.extend layout acc step))
  in
  (* copy: the memoized matrix is shared by every candidate extending
     this prefix, and stored state matrices must be independent *)
  Result.map (fun (m, _) -> Mat.copy m) (prefix steps)

(* ---- trace tier ---- *)

(* Process-wide memos for the trace tier: keys render everything the
   simulation depends on (program text, parameter bindings, cache
   geometry, array extents, step bound), so a hit is bit-identical to a
   recompute and the tables are safe to share across worker domains and
   across searches — a re-search of a known program (inlbench's
   optimize-warm workload, the serve daemon) skips straight past
   interpretation.  Failed simulations are never stored. *)
let sim_memo : Cachesim.stats Memo.t = Memo.create ~name:"sim memo" ~max_entries:512 ()

let arrays_memo : (string * int list) list Memo.t =
  Memo.create ~name:"arrays memo" ~max_entries:256 ()

let clear_process_memos () =
  Key_memo.(clear pipe_memo; clear complete_memo; clear sig_memo);
  Memo.(clear sim_memo; clear arrays_memo)

let trace_cache_stats () = Memo.stats sim_memo

let params_key params =
  String.concat "," (List.map (fun (p, v) -> p ^ "=" ^ string_of_int v) params)

let arrays_key arrays =
  String.concat ";"
    (List.map
       (fun (a, dims) -> a ^ ":" ^ String.concat "," (List.map string_of_int dims))
       arrays)

(* Array extents for the trace tier, measured by running the source once
   and recording the largest subscript per dimension: a legal candidate
   executes exactly the source's statement instances, so it touches
   exactly the same cells.  Tight extents matter — padding would change
   the line/set geometry and make the miss counts incomparable with
   traces of the untransformed variants.  Falls back to a static
   [size + 2] slop per dimension when the source itself cannot be traced
   (out-of-range subscripts, step limit). *)
let arrays_of (config : config) (prog : Ast.program) ~params : (string * int list) list =
  Memo.memo arrays_memo
    (Printf.sprintf "arrays|%s|%d|%d|%s" (params_key params) config.size config.sim_max_steps
       (Inl.Pp.program_to_string prog))
  @@ fun () ->
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let dims : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, (s : Ast.stmt)) ->
      List.iter
        (fun (r : Ast.aref) ->
          if not (Hashtbl.mem seen r.Ast.array) then begin
            Hashtbl.add seen r.Ast.array ();
            Hashtbl.add dims r.Ast.array (Array.make (List.length r.Ast.index) 0);
            order := r.Ast.array :: !order
          end)
        (Reuse.collect_refs s))
    (Ast.stmts_with_paths prog);
  let fallback () =
    List.rev_map
      (fun name ->
        (name, Array.to_list (Array.map (fun _ -> config.size + 2) (Hashtbl.find dims name))))
      !order
  in
  let trace (a : Interp.access) =
    match Hashtbl.find_opt dims a.Interp.array with
    | None -> ()
    | Some d -> List.iteri (fun i x -> if i < Array.length d && x > d.(i) then d.(i) <- x) a.Interp.index
  in
  match Interp.run ~trace ~max_steps:config.sim_max_steps prog ~params with
  | _ -> List.rev_map (fun name -> (name, Array.to_list (Hashtbl.find dims name))) !order
  | exception (Invalid_argument _ | Interp.Step_limit _) -> fallback ()

let simulate (config : config) ~arrays ~params (prog : Ast.program) : Cachesim.stats option =
  let key =
    Printf.sprintf "sim|%d/%d/%d|%s|%d|%s|%s" (Cachesim.line_bytes config.cache)
      (Cachesim.sets config.cache) (Cachesim.assoc config.cache) (params_key params)
      config.sim_max_steps (arrays_key arrays)
      (Inl.Pp.program_to_string prog)
  in
  match Memo.find sim_memo key with
  | Some stats -> Some stats
  | None -> (
      match
        Cachesim.simulate_program config.cache arrays ~max_steps:config.sim_max_steps prog
          ~params
      with
      | stats ->
          Memo.add sim_memo key stats;
          Some stats
      | exception (Invalid_argument _ | Interp.Step_limit _) -> None)

(* ---- the search ---- *)

module Seen = Hashtbl.Make (Key)

let optimize ?(config = default_config) (ctx : Inl.context) : outcome =
  Stats.timed "search" @@ fun () ->
  let diags = ref [] in
  let warn code fmt = Format.kasprintf (fun m -> diags := Diag.warning ~code ~phase:Diag.Search m :: !diags) fmt in
  let lcache = Inl.Legality.make_cache () in
  let generated = ref 0
  and materialize_failed = ref 0
  and duplicate = ref 0
  and illegal = ref 0
  and scored = ref 0
  and reuse_classes = ref 0
  and reuse_pruned = ref 0
  and degraded_scores = ref 0
  and unknown_refs_total = ref 0
  and simulated = ref 0
  and sim_shared = ref 0
  and sim_skipped = ref 0 in
  let memo_hits_before = (Reuse.memo_stats ()).Memo.hits in
  let lmemo_hits_before = (Inl.Legality.memo_stats ()).Memo.hits in
  let mat_hits_before =
    (mat_cache_stats ()).Memo.hits + (completion_cache_stats ()).Memo.hits
  in
  let delta_inherited_before, delta_checked_before = Inl.Legality.delta_stats () in
  (* This program's identity in the process-wide memo keys.  The
     completion identity also holds the exact dependence set, serialized
     without sharing so that equal sets give equal bytes — under a
     different budget the same source can analyze to different
     (approximate) dependences, and completion reads them. *)
  let prog_text = Inl.Pp.program_to_string ctx.Inl.program in
  let prog = Key.prog_id prog_text in
  let prog_deps = Key.prog_id (prog_text ^ Marshal.to_string ctx.Inl.deps [ Marshal.No_sharing ]) in
  let seen = Seen.create 256 in
  (* Reuse-signature equivalence classes of this search's legal
     candidates: the first member of a class pays for the scoring, every
     later member is a memo lookup and counts as pruned. *)
  let sig_classes : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let all_legal = ref [] in
  (* Collect one generation's evaluations in input order: count the
     funnel, drop duplicates by materialized matrix, keep fresh legal
     states. *)
  let collect (evals : eval list) : state list =
    List.filter_map
      (fun e ->
        incr generated;
        match e with
        | Emat_failed _ ->
            incr materialize_failed;
            None
        | Eillegal _ ->
            incr illegal;
            None
        | Elegal st ->
            (* the duplicate filter, keyed on the candidate matrix *)
            let key = { Key.k_prog = prog; k_steps = []; k_rows = st.s_rows } in
            if Seen.mem seen key then begin
              incr duplicate;
              None
            end
            else begin
              Seen.add seen key ();
              incr scored;
              if Hashtbl.mem sig_classes st.s_static.sig_key then incr reuse_pruned
              else begin
                Hashtbl.add sig_classes st.s_static.sig_key ();
                incr reuse_classes
              end;
              if st.s_static.unknown_refs > 0 then begin
                incr degraded_scores;
                unknown_refs_total := !unknown_refs_total + st.s_static.unknown_refs
              end;
              all_legal := st :: !all_legal;
              Some st
            end)
      evals
  in
  let materialize (recipe : Tf.t) : (Mat.t, string) result =
    if recipe.Tf.edits <> [] then Tf.materialize ctx recipe
    else
      match (recipe.Tf.partial, recipe.Tf.steps) with
      | [], [] -> Tf.materialize ctx recipe
      | _ :: _, _ :: _ -> Tf.materialize ctx recipe (* the mixed-recipe error path *)
      | _ :: _, [] ->
          Result.map Mat.copy
            (Key_memo.memo complete_memo
               {
                 k_prog = prog_deps;
                 k_steps = [];
                 k_rows = Array.of_list (List.map Array.of_list recipe.Tf.partial);
               }
               (fun () -> Tf.materialize ctx recipe))
      | [], steps -> materialize_steps ~prog ctx steps
  in
  let signature structure rows =
    Key_memo.memo sig_memo { k_prog = prog; k_steps = []; k_rows = rows } (fun () ->
        let sg = Reuse.signature ctx structure in
        {
          score = Reuse.weighted_score sg;
          sig_key = Reuse.key sg;
          unknown_refs = Reuse.unknown_refs sg;
        })
  in
  let env = Inl.Legality.make_env ctx.Inl.layout ctx.Inl.deps in
  (* Generation 0: the identity, then the completion-derived seeds.
     Completion itself fans out over the Pool, so seeds materialize on
     the calling domain. *)
  let identity_recipe = { Tf.steps = []; partial = []; edits = [] } in
  let seed_recipes =
    Inl.Completion.seed_rows ctx.Inl.layout
    |> List.map (fun row ->
           {
             Tf.steps = [];
             partial = [ Array.to_list (Vec.to_int_array row) ];
             edits = [];
           })
  in
  let gen0 =
    collect
      (List.map
         (fun (recipe, extendable) ->
           evaluate env lcache ~extendable recipe ~materialize ~signature)
         ((identity_recipe, true) :: List.map (fun r -> (r, false)) seed_recipes))
  in
  let beam = ref (List.to_seq (List.sort compare_static gen0) |> Seq.take config.beam |> List.of_seq) in
  (* Move generations: expand every extendable beam state by one step,
     evaluate the whole generation over the Pool in input order. *)
  (try
     for gen = 1 to config.depth do
       Watchdog.poll ();
       (* like the watchdog, a pending SIGINT is honoured at generation
          boundaries: the CLI flushes partial stats and exits 130
          instead of dying mid-search *)
       Sigint.check ();
       let rng = Rng.case ~seed:config.seed ~index:gen in
       (* One fan-out unit is a (parent, chunk-of-child-recipes) pair:
          the chunk amortizes the per-task cost (the parent's prefix
          matrix is one memo lookup away, its verdict summary one
          pointer) across ~chunk_size candidates instead of paying it
          per candidate.  Chunks are built and concatenated in beam
          order, so the eval list is byte-identical to the old
          one-task-per-candidate fan-out at any --jobs. *)
       let chunk_size = 16 in
       let expansions =
         List.concat_map
           (fun st ->
             if not st.s_extendable then []
             else
               let moves =
                 Moves.enumerate st.s_structure.Inl.Blockstruct.new_program
               in
               let moves =
                 if List.length moves <= config.max_moves then moves
                 else Rng.shuffle rng moves |> List.filteri (fun i _ -> i < config.max_moves)
               in
               let recipes =
                 List.map
                   (fun mv ->
                     (* a move is a step list — compound moves (the
                        wavefront pair) append as one unit *)
                     { Tf.steps = st.s_recipe.Tf.steps @ mv; partial = []; edits = [] })
                   moves
               in
               let rec chunk = function
                 | [] -> []
                 | rs ->
                     let taken = List.filteri (fun i _ -> i < chunk_size) rs in
                     let rest = List.filteri (fun i _ -> i >= chunk_size) rs in
                     (st, taken) :: chunk rest
               in
               chunk recipes)
           !beam
       in
       if expansions = [] then raise Exit;
       let evals =
         Pool.map
           (fun (parent, recipes) ->
             List.map
               (fun recipe ->
                 evaluate env lcache ~extendable:true ?parent:parent.s_summary recipe
                   ~materialize ~signature)
               recipes)
           expansions
         |> List.concat
       in
       let fresh = collect evals in
       (* the next beam draws from everything alive, so a strong seed or
          parent survives a generation of weak children *)
       let pool = List.sort_uniq compare_static (fresh @ !beam) in
       beam := List.to_seq pool |> Seq.take config.beam |> List.of_seq
     done
   with Exit -> ());
  (* The satellite of degraded scoring: candidates containing a
     singular per-statement transformation are charged the pessimistic
     cost, once silently — now a one-time typed warning per run. *)
  if !degraded_scores > 0 then
    warn "S904"
      "static scoring degraded for %d candidate(s): %d reference(s) under a singular \
       per-statement transformation charged the pessimistic cost"
      !degraded_scores !unknown_refs_total;
  (* ---- finalists: static ranking, then the trace tier ---- *)
  let ranked_static = List.sort compare_static !all_legal in
  let finalists =
    List.to_seq ranked_static |> Seq.take (max 1 config.finalists) |> List.of_seq
  in
  let params = List.map (fun p -> (p, config.size)) ctx.Inl.program.Ast.params in
  let arrays = arrays_of config ctx.Inl.program ~params in
  (* Code generation touches the shared Omega core, so finalists generate
     on the calling domain (the solver cache keeps repeats cheap);
     simulation is pure and fans out. *)
  let programs =
    List.map
      (fun st ->
        Watchdog.poll ();
        match
          Stats.timed "codegen" (fun () ->
              Inl.Simplify.simplify
                (Inl.Codegen.generate st.s_structure ~unsatisfied:st.s_unsatisfied))
        with
        | prog -> Some prog
        | exception Inl.Codegen.Codegen_error msg ->
            warn "S901" "codegen failed for candidate '%s': %s; degraded to the static tier"
              (recipe_line st.s_recipe) msg;
            None
        | exception Omega.Blowup msg ->
            warn "S901"
              "resource budget exhausted generating candidate '%s': %s; degraded to the static \
               tier"
              (recipe_line st.s_recipe) msg;
            None)
      finalists
  in
  (* The trace tier simulates one representative per reuse-signature
     class: the best-ranked finalist of a class that survived code
     generation pays for the simulation, the others inherit its miss
     counts (their per-statement innermost behavior is identical by
     construction; the final ranking still breaks ties on the static
     tier and the recipe text, so sharing preserves determinism). *)
  let fin_arr = Array.of_list finalists in
  let prog_arr = Array.of_list programs in
  let rep_table : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i st ->
      if prog_arr.(i) <> None && not (Hashtbl.mem rep_table st.s_static.sig_key) then
        Hashtbl.add rep_table st.s_static.sig_key i)
    fin_arr;
  let sim_inputs =
    Some ctx.Inl.program
    :: Array.to_list
         (Array.mapi
            (fun i p ->
              if p <> None && Hashtbl.find rep_table fin_arr.(i).s_static.sig_key = i then p
              else None)
            prog_arr)
  in
  let sims =
    Stats.timed "simulate" (fun () ->
        Pool.map
          (function
            | None -> None
            | Some prog -> simulate config ~arrays ~params prog)
          sim_inputs)
  in
  let source_sim, rep_sims =
    match sims with s :: rest -> (s, Array.of_list rest) | [] -> (None, [||])
  in
  let scored_entries =
    Array.to_list
      (Array.mapi
         (fun i st ->
           let prog = prog_arr.(i) in
           let rep = match prog with None -> i | Some _ -> Hashtbl.find rep_table st.s_static.sig_key in
           let sim = match prog with None -> None | Some _ -> rep_sims.(rep) in
           (match (prog, sim) with
           | Some _, None when rep = i ->
               incr sim_skipped;
               warn "S903"
                 "simulation skipped for candidate '%s' (out-of-range access or step limit)"
                 (recipe_line st.s_recipe)
           | _ -> ());
           if prog <> None && rep <> i then incr sim_shared;
           if sim <> None && rep = i then incr simulated;
           let misses = Option.map (fun (s : Cachesim.stats) -> s.Cachesim.misses) sim in
           (* Final order: simulated candidates by misses, then the rest
              by the static tier; every tie breaks on the recipe text. *)
           ( ( Option.is_none misses,
               Option.value misses ~default:0,
               st.s_static.score,
               recipe_key st ),
             {
               rank = 0;
               recipe = st.s_recipe;
               static_score = st.s_static.score;
               misses;
               accesses = Option.map (fun (s : Cachesim.stats) -> s.Cachesim.accesses) sim;
               program = prog;
             } ))
         fin_arr)
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> compare a b) scored_entries
    |> List.mapi (fun i (_, e) -> { e with rank = i + 1 })
  in
  (* ---- the Inl_verify gate: the winner is the best-ranked finalist
     whose generated code passes translation validation ---- *)
  let winner_doall = ref None in
  let winner =
    List.find_opt
      (fun e ->
        match e.program with
        | None -> false
        | Some prog ->
            Watchdog.poll ();
            let report = Verify.run ~against:ctx.Inl.program prog in
            let vds = Verify.diags report in
            if Diag.has_errors vds then begin
              warn "S902" "candidate '%s' failed translation validation: %s"
                (recipe_line e.recipe)
                (Diag.list_to_string (List.filter (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) vds));
              false
            end
            else begin
              (* keep degradation warnings from the winner's validation *)
              diags := List.rev_append (List.filter (fun (d : Diag.t) -> d.Diag.severity = Diag.Warning) vds) !diags;
              (* the winner's validation already ran the DOALL analysis;
                 record how many of its loops are provably parallel so
                 the CLI and the corpus can track parallelizability *)
              winner_doall :=
                Some
                  (List.length
                     (List.filter
                        (fun (_, _, s) -> s = Inl_verify.Doall.Parallel)
                        report.Verify.loops));
              true
            end)
      entries
  in
  if winner = None then
    diags :=
      Diag.error ~code:"S801" ~phase:Diag.Search
        "search produced no verified winner (no legal candidate survived code generation and \
         translation validation)"
      :: !diags;
  let funnel =
    {
      generated = !generated;
      materialize_failed = !materialize_failed;
      duplicate = !duplicate;
      illegal = !illegal;
      scored = !scored;
      reuse_classes = !reuse_classes;
      reuse_pruned = !reuse_pruned;
      simulated = !simulated;
      sim_shared = !sim_shared;
      sim_skipped = !sim_skipped;
    }
  in
  Stats.count "search.generated" funnel.generated;
  Stats.count "search.materialize-failed" funnel.materialize_failed;
  Stats.count "search.duplicate" funnel.duplicate;
  Stats.count "search.pruned-illegal" funnel.illegal;
  Stats.count "search.scored-static" funnel.scored;
  Stats.count "search.reuse.classes" funnel.reuse_classes;
  Stats.count "search.reuse.pruned" funnel.reuse_pruned;
  Stats.count "search.reuse.memo_hits" ((Reuse.memo_stats ()).Memo.hits - memo_hits_before);
  (let inh, chk = Inl.Legality.delta_stats () in
   Stats.count "search.legality.delta-inherited" (inh - delta_inherited_before);
   Stats.count "search.legality.delta-checked" (chk - delta_checked_before));
  Stats.count "search.legality.memo_hits"
    ((Inl.Legality.memo_stats ()).Memo.hits - lmemo_hits_before);
  Stats.count "search.mat.memo_hits"
    ((mat_cache_stats ()).Memo.hits + (completion_cache_stats ()).Memo.hits
   - mat_hits_before);
  Stats.count "search.score-degraded" !degraded_scores;
  Stats.count "search.simulated" funnel.simulated;
  Stats.count "search.sim-shared" funnel.sim_shared;
  Stats.count "search.sim-skipped" funnel.sim_skipped;
  {
    entries;
    winner;
    winner_doall = !winner_doall;
    source_misses = Option.map (fun (s : Cachesim.stats) -> s.Cachesim.misses) source_sim;
    source_accesses = Option.map (fun (s : Cachesim.stats) -> s.Cachesim.accesses) source_sim;
    diags = List.rev !diags;
    funnel;
  }
