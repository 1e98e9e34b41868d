(* The reference walker: the interpreter as it was before it was staged,
   kept here as the oracle the compiled runner ({!Inl_interp.Interp}) is
   tested against.  It re-walks the AST on every iteration, looks
   variables up by name, evaluates every affine form on [Mpz] and keys
   every cell by [(array, index list)] — slow and obviously faithful to
   the program's semantics. *)

module Mpz = Inl_num.Mpz
module Ast = Inl_ir.Ast
module Meval = Inl_ir.Meval
module Interp = Inl_interp.Interp

type access = { array : string; index : int list; kind : [ `Read | `Write ] }

let mix h x = (h * 1000003) lxor x

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

type engine = {
  store : Interp.store;
  init : string -> int list -> float;
  trace : access -> unit;
  limit : int;
  steps : int ref;
}

let step eng =
  incr eng.steps;
  if !(eng.steps) > eng.limit then raise (Interp.Step_limit eng.limit)

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

let rec exec eng ~params bindings nodes =
  let env v =
    match List.assoc_opt v bindings with
    | Some x -> x
    | None -> (
        match List.assoc_opt v params with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Walker.run: unbound variable %s" v))
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
  List.iter
    (function
      | Ast.Stmt s ->
          step eng;
          let v = eval_expr s.Ast.rhs in
          write_cell eng s.Ast.lhs.Ast.array (eval_index s.Ast.lhs) v
      | Ast.If (gs, body) -> if Meval.eval_guards env gs then exec eng ~params bindings body
      | Ast.Let (v, { Ast.num; den }, body) ->
          let value = Meval.eval_affine env num in
          let d = Mpz.to_int den in
          if not (Mpz.is_zero (Mpz.fmod (Mpz.of_int value) den)) then
            invalid_arg (Printf.sprintf "Walker.run: let %s: %d not divisible by %d" v value d);
          let q = Mpz.to_int (Mpz.fdiv (Mpz.of_int value) den) in
          exec eng ~params ((v, q) :: bindings) body
      | Ast.Loop l ->
          Meval.iter_loop env l (fun i ->
              step eng;
              exec eng ~params ((l.Ast.var, i) :: bindings) l.Ast.body))
    nodes

let run ?(init = Interp.default_init) ?(trace = fun _ -> ()) ?max_steps (prog : Ast.program)
    ~(params : (string * int) list) : Interp.store =
  let store : Interp.store = Hashtbl.create 256 in
  let limit = Option.value max_steps ~default:max_int in
  exec { store; init; trace; limit; steps = ref 0 } ~params [] prog.Ast.nest;
  store
