module Mpz = Inl_num.Mpz
module Ast = Inl_ir.Ast
module Linexpr = Inl_presburger.Linexpr

type cell = string * int list

type store = (cell, float) Hashtbl.t

type kind = [ `Read | `Write ]

(* Deterministic pseudo-random values: a small integer hash folded into
   (1, 2) so that divisions and square roots stay well-behaved. *)
let mix h x = (h * 1000003) lxor x

let default_init name index =
  let h = List.fold_left mix (Hashtbl.hash name) index land 0xFFFFF in
  1.0 +. (float_of_int h /. 1048576.0)

(* Intrinsics by name and arity; any other call is uninterpreted and
   evaluates to a hash of its name and argument bits. *)
let call fname arity : float array -> float =
  match (fname, arity) with
  | "sqrt", 1 -> fun a -> Float.sqrt (Float.abs a.(0))
  | "abs", 1 -> fun a -> Float.abs a.(0)
  | "min", 2 -> fun a -> Float.min a.(0) a.(1)
  | "max", 2 -> fun a -> Float.max a.(0) a.(1)
  | _ ->
      let seed = Hashtbl.hash fname in
      fun a ->
        let h = Array.fold_left (fun acc x -> mix acc (Hashtbl.hash (Int64.bits_of_float x))) seed a in
        1.0 +. (float_of_int (h land 0xFFFFF) /. 1048576.0)

exception Step_limit of int

(* ---- native affine forms ----

   Every affine sum is evaluated in native ints and must stay exact.  The
   runner is built only when each coefficient, denominator, divisor and
   step is at most [max_coeff] in magnitude, each form has at most
   [max_terms] variable terms and each constant (parameters folded in) is
   at most [max_const]; every loop range and [Let] quotient is checked to
   stay within [max_value] when it is entered.  A sum is then bounded by
   2^58 + 2^8 * 2^20 * 2^30 = 2^59, far from wrapping. *)

let max_coeff = 1 lsl 20
let max_value = 1 lsl 30
let max_terms = 1 lsl 8
let max_const = 1 lsl 58

(* Dense stores are capped at this many cells in all. *)
let max_cells = 1 lsl 24

let refuse fmt = Printf.ksprintf invalid_arg ("Interp.run: " ^^ fmt)

let small what (z : Mpz.t) =
  match Mpz.to_int_opt z with
  | Some c when abs c <= max_coeff -> c
  | _ -> refuse "%s %s out of range" what (Mpz.to_string z)

let positive what z =
  let d = small what z in
  if d < 1 then refuse "%s %d is not positive" what d;
  d

let in_range what v =
  if v < -max_value || v > max_value then refuse "%s takes value %d, out of range" what v

type aff = { k : int; slot : int array; coef : int array }

(* [scope] maps loop and [Let] variables to slots, innermost first;
   parameters are folded into the constant. *)
let aff scope params (e : Ast.affine) : aff =
  let k, terms =
    Linexpr.fold
      (fun v c (k, terms) ->
        match List.assoc_opt v scope with
        | Some s -> (k, (s, small "coefficient" c) :: terms)
        | None -> (
            match List.assoc_opt v params with
            | Some p -> (Mpz.add k (Mpz.mul c (Mpz.of_int p)), terms)
            | None -> refuse "unbound variable %s" v))
      e
      (Linexpr.constant e, [])
  in
  let k =
    match Mpz.to_int_opt k with
    | Some k when abs k <= max_const -> k
    | _ -> refuse "constant %s out of range" (Mpz.to_string k)
  in
  if List.length terms > max_terms then refuse "affine form with %d terms" (List.length terms);
  { k; slot = Array.of_list (List.map fst terms); coef = Array.of_list (List.map snd terms) }

let eval (slots : int array) (a : aff) =
  let r = ref a.k in
  for j = 0 to Array.length a.slot - 1 do
    r := !r + (a.coef.(j) * slots.(a.slot.(j)))
  done;
  !r

(* floor and ceiling of [a / d] for [d >= 1] *)
let fdiv a d = if a >= 0 then a / d else -((d - 1 - a) / d)
let cdiv a d = -fdiv (-a) d

(* A lower bound's terms round up, an upper bound's round down; the
   combiner is whatever the bound records. *)
type bound = { up : bool; take_max : bool; terms : (aff * int) array }

let bound ~up scope params ({ combine; terms } : Ast.bound) =
  if terms = [] then refuse "empty loop bound";
  {
    up;
    take_max = combine = `Max;
    terms =
      Array.of_list
        (List.map
           (fun { Ast.num; den } -> (aff scope params num, positive "bound denominator" den))
           terms);
  }

let term slots up ((a, d) : aff * int) =
  let v = eval slots a in
  if d = 1 then v else if up then cdiv v d else fdiv v d

let eval_bound slots b =
  let r = ref (term slots b.up b.terms.(0)) in
  for j = 1 to Array.length b.terms - 1 do
    let v = term slots b.up b.terms.(j) in
    if (b.take_max && v > !r) || ((not b.take_max) && v < !r) then r := v
  done;
  !r

type guard = Ge of aff | Eq of aff | Divides of int * aff

let guard scope params = function
  | Ast.Gcmp (`Ge, e) -> Ge (aff scope params e)
  | Ast.Gcmp (`Eq, e) -> Eq (aff scope params e)
  | Ast.Gdiv (d, e) -> Divides (positive "guard divisor" d, aff scope params e)

let holds slots = function
  | Ge a -> eval slots a >= 0
  | Eq a -> eval slots a = 0
  | Divides (d, a) -> eval slots a mod d = 0

let all_hold slots gs =
  let j = ref 0 in
  while !j < Array.length gs && holds slots gs.(!j) do
    incr j
  done;
  !j = Array.length gs

(* ---- the staged runner ----

   The program is compiled once into closures over a [state]: loop
   variables and [Let] quotients live in [slots], indexed by binder
   depth.  What a statement instance does is the [leaf]'s business —
   count it, grow the boxes of the arrays it touches, visit its array
   references (subscripts only), or evaluate it against a dense store —
   so every pass shares one control skeleton and sees the same
   iterations (up to the sizing shortcut below), guards, step counts and
   [Invalid_argument]s as the others. *)

type state = { slots : int array; mutable steps : int; limit : int }

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.limit then raise (Step_limit st.limit)

(* Statement compiler: the instructions one instance executes, in order. *)
type leaf = state -> (string * int) list -> Ast.stmt -> (unit -> unit) array

(* A DOALL loop whose entries are split into contiguous chunks, one per
   worker; each worker has its own state and leaf. *)
type fan = {
  loop : Ast.path;
  workers : (state * leaf) array;
  run_tasks : (unit -> unit) list -> unit;
  merge : unit -> unit;
}

let rec depth nodes =
  List.fold_left
    (fun m n ->
      max m
        (match n with
        | Ast.Loop l -> 1 + depth l.Ast.body
        | Ast.Let (_, _, b) -> 1 + depth b
        | Ast.If (_, b) -> depth b
        | Ast.Stmt _ -> 0))
    0 nodes

let new_state ?max_steps prog =
  {
    slots = Array.make (depth prog.Ast.nest) 0;
    steps = 0;
    limit = Option.value max_steps ~default:max_int;
  }

(* What one compilation shares: the state, the leaf, the fan-out (if
   any) and whether a loop of statements only may run just its first
   and last iterations ([ends], see below). *)
type compiler = {
  st : state;
  leaf : leaf;
  fan : fan option;
  params : (string * int) list;
  ends : bool;
}

let run_code (code : (unit -> unit) array) =
  for i = 0 to Array.length code - 1 do
    code.(i) ()
  done

(* [rpath] is the reversed child-index path of the node being compiled —
   the convention of {!Inl_verify.Instances.loops_of}, so a DOALL report
   entry names the loop a [fan] designates. *)
let rec compile_nodes c rpath scope d nodes =
  match Array.of_list (List.mapi (fun i n -> compile_node c (i :: rpath) scope d n) nodes) with
  | [| node |] -> node
  | code -> fun () -> run_code code

and compile_node c rpath scope d = function
  | Ast.Stmt s ->
      let code = c.leaf c.st scope s and st = c.st in
      fun () ->
        tick st;
        run_code code
  | Ast.If (gs, body) ->
      let gs = Array.of_list (List.map (guard scope c.params) gs) in
      let body = compile_nodes c rpath scope d body in
      let slots = c.st.slots in
      fun () -> if all_hold slots gs then body ()
  | Ast.Let (v, { Ast.num; den }, body) ->
      let num = aff scope c.params num and den = positive "let denominator" den in
      let body = compile_nodes c rpath ((v, d) :: scope) (d + 1) body in
      let slots = c.st.slots in
      fun () ->
        let x = eval slots num in
        if x mod den <> 0 then refuse "let %s: %d not divisible by %d" v x den;
        in_range v (x / den);
        slots.(d) <- x / den;
        body ()
  | Ast.Loop l -> (
      let lower = bound ~up:true scope c.params l.Ast.lower
      and upper = bound ~up:false scope c.params l.Ast.upper
      and step = positive "loop step" l.Ast.step in
      let scope' = (l.Ast.var, d) :: scope in
      let st = c.st in
      let slots = st.slots in
      let entered lo hi =
        if lo <= hi then begin
          in_range l.Ast.var lo;
          in_range l.Ast.var hi
        end
      in
      let stmts = List.filter_map (function Ast.Stmt s -> Some s | _ -> None) l.Ast.body in
      match c.fan with
      | Some f when f.loop = List.rev rpath ->
          let bodies =
            Array.map
              (fun (wst, wleaf) ->
                (wst, compile_nodes { c with st = wst; leaf = wleaf; fan = None } rpath scope' (d + 1) l.Ast.body))
              f.workers
          in
          fun () ->
            let lo = eval_bound slots lower and hi = eval_bound slots upper in
            entered lo hi;
            let n = if lo > hi then 0 else ((hi - lo) / step) + 1 in
            let k = min (Array.length bodies) n in
            let task w =
              (* contiguous near-equal chunks, in iteration order *)
              let first = (w * (n / k)) + min w (n mod k) in
              let count = (n / k) + if w < n mod k then 1 else 0 in
              let wst, body = bodies.(w) in
              fun () ->
                Array.blit slots 0 wst.slots 0 d;
                for j = first to first + count - 1 do
                  tick wst;
                  wst.slots.(d) <- lo + (j * step);
                  body ()
                done
            in
            if k > 0 then begin
              f.run_tasks (List.init k task);
              f.merge ()
            end
      | _ when c.ends && List.length stmts = List.length l.Ast.body ->
          (* Every subscript is affine in the loop variable, so over the
             loop it takes its extremes at the first and last iterations:
             an [ends] leaf (sizing) runs just those two, and the steps
             of all iterations are counted at once.  Nothing else in a
             loop of statements can raise. *)
          let code = Array.concat (List.map (c.leaf st scope') stmts) in
          let per_iteration = 1 + List.length stmts in
          fun () ->
            let lo = eval_bound slots lower and hi = eval_bound slots upper in
            entered lo hi;
            if lo <= hi then begin
              let n = ((hi - lo) / step) + 1 in
              st.steps <- st.steps + (n * per_iteration);
              if st.steps > st.limit then raise (Step_limit st.limit);
              slots.(d) <- lo;
              run_code code;
              slots.(d) <- lo + ((n - 1) * step);
              run_code code
            end
      | _ ->
          let body = compile_nodes c rpath scope' (d + 1) l.Ast.body in
          fun () ->
            let lo = eval_bound slots lower and hi = eval_bound slots upper in
            entered lo hi;
            let i = ref lo in
            while !i <= hi do
              tick st;
              slots.(d) <- !i;
              body ();
              i := !i + step
            done)

let walk ?max_steps ?fan ?(ends = false) leaf (prog : Ast.program) ~params =
  let c = { st = new_state ?max_steps prog; leaf; fan; params; ends } in
  compile_nodes c [] [] 0 prog.Ast.nest ()

(* ---- array references ----

   Each distinct (array, rank) pair is one region: the walker's cells
   [(name, index)] of different ranks never alias, and neither do
   regions. *)

let rec expr_refs acc = function
  | Ast.Eref r -> r :: acc
  | Ast.Econst _ | Ast.Evar _ -> acc
  | Ast.Ebin (_, a, b) -> expr_refs (expr_refs acc a) b
  | Ast.Ecall (_, args) -> List.fold_left expr_refs acc args

(* The references of a statement in the order an instance touches them:
   the right-hand side's reads left to right, then the write. *)
let stmt_refs (s : Ast.stmt) = List.rev (s.Ast.lhs :: expr_refs [] s.Ast.rhs)

let regions (prog : Ast.program) : (string * int) array =
  let seen = ref [] in
  List.iter
    (fun (_, s) ->
      List.iter
        (fun (r : Ast.aref) ->
          let key = (r.Ast.array, List.length r.Ast.index) in
          if not (List.mem key !seen) then seen := key :: !seen)
        (stmt_refs s))
    (Ast.stmts_with_paths prog);
  Array.of_list (List.rev !seen)

let region_of regions (r : Ast.aref) =
  let key = (r.Ast.array, List.length r.Ast.index) in
  let rec find i = if regions.(i) = key then i else find (i + 1) in
  find 0

(* One reference site: its region, subscript forms and the index buffer
   an instance fills. *)
type site = { region : int; subs : aff array; idx : int array }

let site regions scope params (r : Ast.aref) =
  let subs = Array.of_list (List.map (aff scope params) r.Ast.index) in
  { region = region_of regions r; subs; idx = Array.make (Array.length subs) 0 }

let fill slots (a : site) =
  for j = 0 to Array.length a.subs - 1 do
    a.idx.(j) <- eval slots a.subs.(j)
  done

let resolve scope params v =
  match List.assoc_opt v scope with
  | Some s -> `Slot s
  | None -> (
      match List.assoc_opt v params with Some p -> `Const p | None -> refuse "unbound variable %s" v)

let rec check_vars scope params = function
  | Ast.Evar v -> ignore (resolve scope params v)
  | Ast.Econst _ | Ast.Eref _ -> ()
  | Ast.Ebin (_, a, b) ->
      check_vars scope params a;
      check_vars scope params b
  | Ast.Ecall (_, args) -> List.iter (check_vars scope params) args

(* Subscript-only leaf: hands every reference to [visit] with its region
   and a reused index buffer, in execution order.  Right-hand sides are
   not evaluated — no value influences control flow or a subscript. *)
let visit_leaf regions params (visit : int -> int array -> kind -> unit) : leaf =
 fun st scope s ->
  check_vars scope params s.Ast.rhs;
  let reads = List.rev (expr_refs [] s.Ast.rhs) in
  let slots = st.slots in
  let touch kind r =
    let a = site regions scope params r in
    fun () ->
      fill slots a;
      visit a.region a.idx kind
  in
  Array.of_list (List.map (touch `Read) reads @ [ touch `Write s.Ast.lhs ])

(* ---- dense stores ----

   All regions share one [float array]; region [r] covers the row-major
   box [lo, lo + ext) at offset [base].  [seen] marks the cells in the
   store (written, or read and initialised).  A worker of a fan-out with
   several chunks reads the shared [seen] but marks only its own [own]
   map and logs what it marks in [fresh]; after the fan-out the logs are
   OR-ed into [seen].  Everywhere else [own] is [seen] itself. *)

type geometry = { name : string; base : int; lo : int array; ext : int array }

type view = {
  data : float array;
  seen : Bytes.t;
  own : Bytes.t;
  init : string -> int list -> float;
  mutable fresh : int array;
  mutable nfresh : int;
}

let address slots (g : geometry) (a : site) =
  let c = ref 0 in
  for j = 0 to Array.length a.subs - 1 do
    c := (!c * g.ext.(j)) + (eval slots a.subs.(j) - g.lo.(j))
  done;
  g.base + !c

let unmarked v c = Bytes.get v.seen c = '\000' && Bytes.get v.own c = '\000'

let mark v c =
  Bytes.set v.own c '\001';
  if v.own != v.seen then begin
    if v.nfresh = Array.length v.fresh then begin
      let bigger = Array.make (max 64 (2 * v.nfresh)) 0 in
      Array.blit v.fresh 0 bigger 0 v.nfresh;
      v.fresh <- bigger
    end;
    v.fresh.(v.nfresh) <- c;
    v.nfresh <- v.nfresh + 1
  end

let merge v =
  for j = 0 to v.nfresh - 1 do
    let c = v.fresh.(j) in
    Bytes.set v.seen c '\001';
    Bytes.set v.own c '\000'
  done;
  v.nfresh <- 0

(* A read of a cell not yet in the store takes [init] and records it. *)
let load v slots g a (regs : float array) r =
  let c = address slots g a in
  if unmarked v c then begin
    fill slots a;
    v.data.(c) <- v.init g.name (Array.to_list a.idx);
    mark v c
  end;
  regs.(r) <- v.data.(c)

let store v slots g a (regs : float array) r =
  let c = address slots g a in
  v.data.(c) <- regs.(r);
  if unmarked v c then mark v c

let rec expr_size = function
  | Ast.Eref _ | Ast.Econst _ | Ast.Evar _ -> 1
  | Ast.Ebin (_, a, b) -> 1 + expr_size a + expr_size b
  | Ast.Ecall (_, args) -> List.fold_left (fun n a -> n + expr_size a) 1 args

(* Evaluating leaf: the right-hand side becomes straight-line register
   code (one float register per expression node, constants preloaded),
   so no float is boxed on the way to the store. *)
let eval_leaf regions (geo : geometry array) params (v : view) : leaf =
 fun st scope s ->
  let regs = Array.make (expr_size s.Ast.rhs) 0. in
  let slots = st.slots in
  let code = ref [] and next = ref 0 in
  let emit f = code := f :: !code in
  let reg () =
    let r = !next in
    incr next;
    r
  in
  let rec compile = function
    | Ast.Econst f ->
        let r = reg () in
        regs.(r) <- f;
        r
    | Ast.Evar x ->
        let r = reg () in
        (match resolve scope params x with
        | `Slot i -> emit (fun () -> regs.(r) <- float_of_int slots.(i))
        | `Const c -> regs.(r) <- float_of_int c);
        r
    | Ast.Eref ref ->
        let a = site regions scope params ref in
        let g = geo.(a.region) and r = reg () in
        emit (fun () -> load v slots g a regs r);
        r
    | Ast.Ebin (op, x, y) ->
        let x = compile x in
        let y = compile y in
        let r = reg () in
        emit
          (match op with
          | Ast.Add -> fun () -> regs.(r) <- regs.(x) +. regs.(y)
          | Ast.Sub -> fun () -> regs.(r) <- regs.(x) -. regs.(y)
          | Ast.Mul -> fun () -> regs.(r) <- regs.(x) *. regs.(y)
          | Ast.Div -> fun () -> regs.(r) <- regs.(x) /. regs.(y));
        r
    | Ast.Ecall (f, args) ->
        let xs = Array.of_list (List.map compile args) in
        let r = reg () in
        let fn = call f (Array.length xs) and argv = Array.make (Array.length xs) 0. in
        emit (fun () ->
            for j = 0 to Array.length xs - 1 do
              argv.(j) <- regs.(xs.(j))
            done;
            regs.(r) <- fn argv);
        r
  in
  let value = compile s.Ast.rhs in
  let a = site regions scope params s.Ast.lhs in
  let g = geo.(a.region) in
  emit (fun () -> store v slots g a regs value);
  Array.of_list (List.rev !code)

(* ---- sizing ---- *)

(* Per region: whether any instance touched it, and the box of the
   subscripts it touched. *)
type boxes = { hit : bool array; lo : int array array; hi : int array array }

(* The subscript-only pass that sizes the dense store.  Raises exactly
   where a full run would. *)
let size ?max_steps regions (prog : Ast.program) ~params =
  let b =
    {
      hit = Array.map (fun _ -> false) regions;
      lo = Array.map (fun (_, rank) -> Array.make rank max_int) regions;
      hi = Array.map (fun (_, rank) -> Array.make rank min_int) regions;
    }
  in
  let extend r idx _ =
    let lo = b.lo.(r) and hi = b.hi.(r) in
    b.hit.(r) <- true;
    for j = 0 to Array.length idx - 1 do
      if idx.(j) < lo.(j) then lo.(j) <- idx.(j);
      if idx.(j) > hi.(j) then hi.(j) <- idx.(j)
    done
  in
  walk ?max_steps ~ends:true (visit_leaf regions params extend) prog ~params;
  b

let layout regions (b : boxes) =
  let cells = ref 0 in
  let geo =
    Array.mapi
      (fun r (name, _) ->
        let ext =
          if b.hit.(r) then Array.mapi (fun j lo -> b.hi.(r).(j) - lo + 1) b.lo.(r)
          else Array.map (fun _ -> 0) b.lo.(r)
        in
        let n =
          Array.fold_left
            (fun n e ->
              if e > max_cells || n * e > max_cells then
                refuse "array %s spans more than %d cells" name max_cells;
              n * e)
            1 ext
        in
        let base = !cells in
        cells := !cells + n;
        if !cells > max_cells then refuse "the arrays span more than %d cells" max_cells;
        { name; base; lo = b.lo.(r); ext })
      regions
  in
  (geo, !cells)

(* The public store, built once from the dense one: every marked cell,
   region by region in row-major order. *)
let to_store (geo : geometry array) (v : view) : store =
  let count = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr count) v.seen;
  (* a table grows once it holds two entries per bucket: half as many
     buckets as cells is its final size, allocated once *)
  let out : store = Hashtbl.create (max 16 (!count / 2)) in
  Array.iter
    (fun g ->
      let rank = Array.length g.ext in
      let cells = Array.fold_left ( * ) 1 g.ext in
      let idx = Array.copy g.lo in
      for c = g.base to g.base + cells - 1 do
        if Bytes.get v.seen c <> '\000' then Hashtbl.add out (g.name, Array.to_list idx) v.data.(c);
        (* row-major odometer *)
        let j = ref (rank - 1) in
        while !j >= 0 && idx.(!j) = g.lo.(!j) + g.ext.(!j) - 1 do
          idx.(!j) <- g.lo.(!j);
          decr j
        done;
        if !j >= 0 then idx.(!j) <- idx.(!j) + 1
      done)
    geo;
  out

(* ---- entry points ---- *)

type fan_out = { loop : Ast.path; chunks : int; run_tasks : (unit -> unit) list -> unit }

let view ?own ~init data seen =
  { data; seen; own = Option.value own ~default:seen; init; fresh = [||]; nfresh = 0 }

let run ?(init = default_init) ?max_steps ?fan_out (prog : Ast.program) ~params : store =
  let regions = regions prog in
  let geo, cells = layout regions (size ?max_steps regions prog ~params) in
  let data = Array.make cells 0. and seen = Bytes.make cells '\000' in
  let main = view ~init data seen in
  let fan =
    Option.map
      (fun (f : fan_out) ->
        (* a lone chunk never runs beside another, so it marks the shared
           map itself: no second map, no log *)
        let views =
          Array.init (max 1 f.chunks) (fun _ ->
              if f.chunks <= 1 then view ~init data seen
              else view ~own:(Bytes.make cells '\000') ~init data seen)
        in
        {
          loop = f.loop;
          workers = Array.map (fun w -> (new_state prog, eval_leaf regions geo params w)) views;
          run_tasks = f.run_tasks;
          merge = (fun () -> Array.iter merge views);
        })
      fan_out
  in
  (* the sizing pass already enforced [max_steps] and raised whatever
     this pass would *)
  walk ?fan (eval_leaf regions geo params main) prog ~params;
  to_store geo main

let trace ?max_steps hook prog ~params =
  let regions = regions prog in
  walk ?max_steps (visit_leaf regions params (fun r idx kind -> hook (fst regions.(r)) idx kind)) prog ~params

let extents ?max_steps (prog : Ast.program) ~params =
  let regions = regions prog in
  let b = size ?max_steps regions prog ~params in
  List.filter_map
    (fun r -> if b.hit.(r) then Some (fst regions.(r), b.lo.(r), b.hi.(r)) else None)
    (List.init (Array.length regions) Fun.id)
  |> List.stable_sort (fun (a, lo, _) (b, lo', _) -> compare (a, Array.length lo) (b, Array.length lo'))

let operation_count (prog : Ast.program) ~params =
  let n = ref 0 in
  walk (fun _ _ _ -> [| (fun () -> incr n) |]) prog ~params;
  !n

(* Bit-level equality: exact, and NaN-stable (a legal transformation that
   reproduces the same NaN must not be reported as a difference). *)
let feq (v : float) (w : float) = Int64.bits_of_float v = Int64.bits_of_float w

let show (name, idx) = Printf.sprintf "%s(%s)" name (String.concat "," (List.map string_of_int idx))

let differs cell v w = Printf.sprintf "%s: %.17g vs %.17g" (show cell) v w

let same_cell ((n, i) : cell) ((m, j) : cell) = String.equal n m && List.equal Int.equal i j

(* Two stores the runner built over the same cells list them in the same
   order, so they compare in lockstep without hashing; [None] at the
   first pair of different cells. *)
let lockstep (a : store) (b : store) =
  let rec go sa sb =
    match (sa (), sb ()) with
    | Seq.Nil, Seq.Nil -> Some (Ok ())
    | Seq.Cons ((ca, v), sa), Seq.Cons ((cb, w), sb) when same_cell ca cb ->
        if feq v w then go sa sb else Some (Error (differs ca v w))
    | _ -> None
  in
  if Hashtbl.length a <> Hashtbl.length b then None else go (Hashtbl.to_seq a) (Hashtbl.to_seq b)

let store_diff (a : store) (b : store) =
  match lockstep a b with
  | Some r -> r
  | None -> (
      let diff = ref None in
      Hashtbl.iter
        (fun cell v ->
          if !diff = None then
            match Hashtbl.find_opt b cell with
            | Some w when feq v w -> ()
            | Some w -> diff := Some (differs cell v w)
            | None -> diff := Some (show cell ^ " touched only by the first program"))
        a;
      if !diff = None then
        Hashtbl.iter
          (fun cell _ ->
            if !diff = None && not (Hashtbl.mem a cell) then
              diff := Some (show cell ^ " touched only by the second program"))
          b;
      match !diff with None -> Ok () | Some d -> Error d)

let stores_equal a b = Result.is_ok (store_diff a b)

let equivalent ?max_steps p1 p2 ~params =
  let s1 = run ?max_steps p1 ~params and s2 = run ?max_steps p2 ~params in
  store_diff s1 s2
