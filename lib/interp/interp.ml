module Mpz = Inl_num.Mpz
module Ast = Inl_ir.Ast
module Meval = Inl_ir.Meval

type cell = string * int list

type access = { array : string; index : int list; kind : [ `Read | `Write ] }

type store = (cell, float) Hashtbl.t

(* Deterministic pseudo-random values: a small integer hash folded into
   (1, 2) so that divisions and square roots stay well-behaved. *)
let mix h x = (h * 1000003) lxor x

let default_init name index =
  let h = List.fold_left mix (Hashtbl.hash name) index land 0xFFFFF in
  1.0 +. (float_of_int h /. 1048576.0)

let call_value fname (args : float list) =
  match (fname, args) with
  | "sqrt", [ x ] -> Float.sqrt (Float.abs x)
  | "abs", [ x ] -> Float.abs x
  | "min", [ a; b ] -> Float.min a b
  | "max", [ a; b ] -> Float.max a b
  | _ ->
      let h =
        List.fold_left (fun acc a -> mix acc (Hashtbl.hash (Int64.bits_of_float a))) (Hashtbl.hash fname) args
      in
      1.0 +. (float_of_int (h land 0xFFFFF) /. 1048576.0)

exception Step_limit of int

(* One evaluator, three entry points.  The engine bundles the mutable
   execution state so that [run], [run_nest] (hookable full walk) and
   [run_slice] (sub-range of one loop level, against a caller-supplied
   store) share the same semantics by construction. *)
type engine = {
  store : store;
  init : string -> int list -> float;
  trace : access -> unit;
  limit : int;
  steps : int ref;
}

let make_engine ?(init = default_init) ?(trace = fun _ -> ()) ?max_steps store =
  let limit = match max_steps with Some n -> n | None -> max_int in
  { store; init; trace; limit; steps = ref 0 }

let step eng =
  incr eng.steps;
  if !(eng.steps) > eng.limit then raise (Step_limit eng.limit)

let read_cell eng array index =
  let cell = (array, index) in
  eng.trace { array; index; kind = `Read };
  match Hashtbl.find_opt eng.store cell with
  | Some v -> v
  | None ->
      let v = eng.init array index in
      Hashtbl.replace eng.store cell v;
      v

let write_cell eng array index v =
  eng.trace { array; index; kind = `Write };
  Hashtbl.replace eng.store (array, index) v

(* [rpath] is the reversed child-index path of the node being visited —
   the same convention as {!Inl_verify.Instances.loops_of}, so a DOALL report
   entry identifies the loop the hook sees. *)
let rec exec eng ~params ~on_loop rpath bindings nodes =
  let env v =
    match List.assoc_opt v bindings with
    | Some x -> x
    | None -> (
        match List.assoc_opt v params with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Interp.run: unbound variable %s" v))
  in
  let eval_index (r : Ast.aref) = List.map (Meval.eval_affine env) r.Ast.index in
  let rec eval_expr = function
    | Ast.Econst f -> f
    | Ast.Evar v -> float_of_int (env v)
    | Ast.Eref r -> read_cell eng r.Ast.array (eval_index r)
    | Ast.Ebin (op, a, b) -> (
        let x = eval_expr a and y = eval_expr b in
        match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div -> x /. y)
    | Ast.Ecall (f, args) -> call_value f (List.map eval_expr args)
  in
  List.iteri
    (fun i node ->
      let rpath = i :: rpath in
      match node with
      | Ast.Stmt s ->
          step eng;
          let v = eval_expr s.Ast.rhs in
          write_cell eng s.Ast.lhs.Ast.array (eval_index s.Ast.lhs) v
      | Ast.If (gs, body) ->
          if Meval.eval_guards env gs then exec eng ~params ~on_loop rpath bindings body
      | Ast.Let (v, { Ast.num; den }, body) ->
          let value = Meval.eval_affine env num in
          let d = Mpz.to_int den in
          if not (Mpz.is_zero (Mpz.fmod (Mpz.of_int value) den)) then
            invalid_arg (Printf.sprintf "Interp.run: let %s: %d not divisible by %d" v value d);
          let q = Mpz.to_int (Mpz.fdiv (Mpz.of_int value) den) in
          exec eng ~params ~on_loop rpath ((v, q) :: bindings) body
      | Ast.Loop l -> (
          match on_loop (List.rev rpath) l bindings with
          | `Handled -> ()
          | `Default ->
              Meval.iter_loop env l (fun i ->
                  step eng;
                  exec eng ~params ~on_loop rpath ((l.Ast.var, i) :: bindings) l.Ast.body)))
    nodes

let run_nest ?init ?trace ?max_steps ?(on_loop = fun _ _ _ -> `Default) ~store
    (prog : Ast.program) ~(params : (string * int) list) : unit =
  let eng = make_engine ?init ?trace ?max_steps store in
  exec eng ~params ~on_loop [] [] prog.Ast.nest

let run ?init ?trace ?max_steps (prog : Ast.program) ~(params : (string * int) list) : store =
  let store : store = Hashtbl.create 256 in
  run_nest ?init ?trace ?max_steps ~store prog ~params;
  store

let loop_values ~(params : (string * int) list) ~(bindings : (string * int) list)
    (l : Ast.loop) : int list =
  let env v =
    match List.assoc_opt v bindings with
    | Some x -> x
    | None -> (
        match List.assoc_opt v params with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Interp.loop_values: unbound variable %s" v))
  in
  let acc = ref [] in
  Meval.iter_loop env l (fun i -> acc := i :: !acc);
  List.rev !acc

let run_slice ?init ?trace ?max_steps ~store ~(bindings : (string * int) list)
    ~(values : int list) (l : Ast.loop) ~(params : (string * int) list) : unit =
  let eng = make_engine ?init ?trace ?max_steps store in
  let on_loop _ _ _ = `Default in
  List.iter
    (fun i ->
      step eng;
      exec eng ~params ~on_loop [] ((l.Ast.var, i) :: bindings) l.Ast.body)
    values

(* Bit-level equality: exact, and NaN-stable (a legal transformation that
   reproduces the same NaN must not be reported as a difference). *)
let feq (v : float) (w : float) = Int64.bits_of_float v = Int64.bits_of_float w

let stores_equal (a : store) (b : store) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun cell v acc ->
         acc && match Hashtbl.find_opt b cell with Some w -> feq v w | None -> false)
       a true

let store_diff (a : store) (b : store) =
  let diff = ref None in
  Hashtbl.iter
    (fun cell v ->
      if !diff = None then
        match Hashtbl.find_opt b cell with
        | Some w when feq v w -> ()
        | Some w ->
            let name, idx = cell in
            diff :=
              Some
                (Printf.sprintf "%s(%s): %.17g vs %.17g" name
                   (String.concat "," (List.map string_of_int idx))
                   v w)
        | None ->
            let name, idx = cell in
            diff :=
              Some
                (Printf.sprintf "%s(%s) touched only by the first program" name
                   (String.concat "," (List.map string_of_int idx))))
    a;
  if !diff = None then
    Hashtbl.iter
      (fun cell _ ->
        if !diff = None && not (Hashtbl.mem a cell) then begin
          let name, idx = cell in
          diff :=
            Some
              (Printf.sprintf "%s(%s) touched only by the second program" name
                 (String.concat "," (List.map string_of_int idx)))
        end)
      b;
  match !diff with None -> Ok () | Some d -> Error d

let equivalent ?max_steps p1 p2 ~params =
  let s1 = run ?max_steps p1 ~params and s2 = run ?max_steps p2 ~params in
  store_diff s1 s2

let operation_count (prog : Ast.program) ~params = List.length (Meval.enumerate prog ~params)
