(* Textual C/OpenMP backend: lower a (possibly transformed) nest to a
   self-contained C file with `#pragma omp parallel for` on the
   proven-DOALL dimensions.

   Emit-only by design — nothing in tier-1 compiles the output, so the
   repo carries no C-compiler dependency; the file is for taking the
   measured schedules to real OpenMP hardware.  Array extents are
   measured by the interpreter's sizing pass at the given parameter
   values, so the emitted program is closed (no command-line inputs) and
   prints a checksum plus the kernel wall time. *)

module Mpz = Inl_num.Mpz
module Ast = Inl_ir.Ast
module Linexpr = Inl_presburger.Linexpr
module Doall = Inl_verify.Doall
module Interp = Inl_interp.Interp

type extent = { dims : int; lo : int array; hi : int array }

let caffine (e : Ast.affine) = Format.asprintf "%a" Linexpr.pp e

let cbterm ~(round : [ `Up | `Down ]) ({ num; den } : Ast.bterm) =
  if Mpz.is_one den then Printf.sprintf "(%s)" (caffine num)
  else
    Printf.sprintf "%s(%s, %s)"
      (match round with `Up -> "ceild" | `Down -> "floord")
      (caffine num) (Mpz.to_string den)

let cbound ~(role : [ `Lower | `Upper ]) (b : Ast.bound) =
  let round = match role with `Lower -> `Up | `Upper -> `Down in
  let terms = List.map (cbterm ~round) b.Ast.terms in
  let combine = match b.Ast.combine with `Max -> "lmax" | `Min -> "lmin" in
  List.fold_left (fun acc t -> Printf.sprintf "%s(%s, %s)" combine acc t) (List.hd terms)
    (List.tl terms)

let cguard = function
  | Ast.Gcmp (`Ge, e) -> Printf.sprintf "(%s) >= 0" (caffine e)
  | Ast.Gcmp (`Eq, e) -> Printf.sprintf "(%s) == 0" (caffine e)
  | Ast.Gdiv (d, e) -> Printf.sprintf "(%s) %% %s == 0" (caffine e) (Mpz.to_string d)

let aref_c (r : Ast.aref) =
  Printf.sprintf "%s_(%s)" r.Ast.array (String.concat ", " (List.map caffine r.Ast.index))

(* Uninterpreted calls become deterministic stub functions, one per
   (name, arity). *)
let uf_name f arity = Printf.sprintf "uf_%s%d" f arity

let rec cexpr ufs = function
  | Ast.Econst f -> Printf.sprintf "%.17g" f
  | Ast.Evar v -> Printf.sprintf "(double)(%s)" v
  | Ast.Eref r -> aref_c r
  | Ast.Ebin (op, a, b) ->
      let s = match op with Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/" in
      Printf.sprintf "(%s %s %s)" (cexpr ufs a) s (cexpr ufs b)
  | Ast.Ecall (f, args) -> (
      let cargs = List.map (cexpr ufs) args in
      match (f, cargs) with
      | "sqrt", [ x ] -> Printf.sprintf "sqrt(fabs(%s))" x
      | "abs", [ x ] -> Printf.sprintf "fabs(%s)" x
      | "min", [ a; b ] -> Printf.sprintf "fmin(%s, %s)" a b
      | "max", [ a; b ] -> Printf.sprintf "fmax(%s, %s)" a b
      | _ ->
          let arity = List.length args in
          if not (List.mem (f, arity) !ufs) then ufs := (f, arity) :: !ufs;
          Printf.sprintf "%s(%s)" (uf_name f arity) (String.concat ", " cargs))

let emit (prog : Ast.program) ~(params : (string * int) list)
    ~(doall : (Ast.path * string * Doall.status) list) : string =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  let line ind fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b (String.make (2 * ind) ' ');
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let extents =
    List.map
      (fun (name, lo, hi) -> (name, { dims = Array.length lo; lo; hi }))
      (Interp.extents prog ~params)
  in
  (* parallel loops that are not enclosed by another parallel loop get
     the pragma — OpenMP nested parallel regions would only oversubscribe *)
  let parallel_paths =
    List.filter_map (fun (p, _, s) -> if s = Doall.Parallel then Some p else None) doall
  in
  let pragma_paths =
    List.filter
      (fun p -> not (List.exists (fun q -> Ast.is_proper_prefix q p) parallel_paths))
      parallel_paths
  in
  let ufs = ref [] in
  (* render the kernel first so the uninterpreted-stub set is known *)
  let kernel = Buffer.create 1024 in
  let kout ind fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string kernel (String.make (2 * ind) ' ');
        Buffer.add_string kernel s;
        Buffer.add_char kernel '\n')
      fmt
  in
  let rec node ind rpath i n =
    let rpath = i :: rpath in
    match n with
    | Ast.Stmt s -> kout ind "%s = %s; /* %s */" (aref_c s.Ast.lhs) (cexpr ufs s.Ast.rhs) s.Ast.label
    | Ast.If (gs, body) ->
        kout ind "if (%s) {" (String.concat " && " (List.map cguard gs));
        body_nodes (ind + 1) rpath body;
        kout ind "}"
    | Ast.Let (v, { Ast.num; den }, body) ->
        kout ind "{";
        (* exact quotient by construction (a Gdiv guard precedes), so C
           truncation agrees with the mathematical quotient *)
        kout (ind + 1) "const int %s = (%s) / %s;" v (caffine num) (Mpz.to_string den);
        body_nodes (ind + 1) rpath body;
        kout ind "}"
    | Ast.Loop l ->
        if List.mem (List.rev rpath) pragma_paths then kout ind "#pragma omp parallel for";
        kout ind "for (int %s = %s; %s <= %s; %s += %s) {" l.Ast.var
          (cbound ~role:`Lower l.Ast.lower)
          l.Ast.var
          (cbound ~role:`Upper l.Ast.upper)
          l.Ast.var (Mpz.to_string l.Ast.step);
        body_nodes (ind + 1) rpath l.Ast.body;
        kout ind "}"
  and body_nodes ind rpath body = List.iteri (fun i n -> node ind rpath i n) body in
  body_nodes 1 [] prog.Ast.nest;
  (* file header *)
  out "/* generated by inltool run --emit-c; do not edit. */\n";
  out "#include <stdio.h>\n#include <math.h>\n#include <time.h>\n";
  out "#ifdef _OPENMP\n#include <omp.h>\n#endif\n\n";
  out "#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))\n";
  out "#define ceild(n, d) (((n) < 0) ? -((-(n)) / (d)) : ((n) + (d) - 1) / (d))\n";
  out "#define lmax(a, b) ((a) > (b) ? (a) : (b))\n";
  out "#define lmin(a, b) ((a) < (b) ? (a) : (b))\n\n";
  List.iter (fun (p, v) -> out "#define %s %d\n" p v) params;
  if params <> [] then out "\n";
  (* arrays at measured extents, index macros shifting negative origins *)
  List.iter
    (fun (name, e) ->
      let sizes =
        Array.to_list (Array.init e.dims (fun i -> e.hi.(i) - e.lo.(i) + 1))
      in
      out "static double %s%s;\n" name
        (String.concat "" (List.map (Printf.sprintf "[%d]") sizes));
      let args = List.init e.dims (fun i -> Printf.sprintf "i%d" i) in
      let subs =
        List.mapi (fun i a -> Printf.sprintf "[(%s) - (%d)]" a e.lo.(i)) args
      in
      out "#define %s_(%s) %s%s\n" name (String.concat ", " args) name (String.concat "" subs))
    extents;
  if extents <> [] then out "\n";
  List.iter
    (fun (f, arity) ->
      let args = List.init arity (fun i -> Printf.sprintf "double a%d" i) in
      let mix =
        List.init arity (fun i -> Printf.sprintf "%d.0 * a%d" ((i * 12) + 17) i)
      in
      out "static double %s(%s) { return 1.0 + fmod(fabs(%s), 1.0); }\n" (uf_name f arity)
        (String.concat ", " args)
        (String.concat " + " (if mix = [] then [ "0.0" ] else mix)))
    (List.rev !ufs);
  if !ufs <> [] then out "\n";
  out "int main(void) {\n";
  (* deterministic dense initialization over each measured extent box *)
  List.iter
    (fun (name, e) ->
      let idxs = List.init e.dims (fun i -> Printf.sprintf "i%d" i) in
      List.iteri
        (fun i v -> line (i + 1) "for (int %s = %d; %s <= %d; %s++)" v e.lo.(i) v e.hi.(i) v)
        idxs;
      let mix =
        List.mapi (fun i v -> Printf.sprintf "%d * %s" ((i * 6) + 7) v) idxs
      in
      line (e.dims + 1) "%s_(%s) = 1.0 + (double)(((%s) %% 1048576 + 1048576) %% 1048576) / 1048576.0;"
        name (String.concat ", " idxs)
        (String.concat " + " (if mix = [] then [ "0" ] else mix)))
    extents;
  out "#ifdef _OPENMP\n";
  line 1 "double t0 = omp_get_wtime();";
  out "#else\n";
  line 1 "clock_t t0 = clock();";
  out "#endif\n";
  Buffer.add_buffer b kernel;
  out "#ifdef _OPENMP\n";
  line 1 "double elapsed = omp_get_wtime() - t0;";
  out "#else\n";
  line 1 "double elapsed = (double)(clock() - t0) / CLOCKS_PER_SEC;";
  out "#endif\n";
  line 1 "double checksum = 0.0;";
  List.iter
    (fun (name, e) ->
      let idxs = List.init e.dims (fun i -> Printf.sprintf "i%d" i) in
      List.iteri
        (fun i v -> line (i + 1) "for (int %s = %d; %s <= %d; %s++)" v e.lo.(i) v e.hi.(i) v)
        idxs;
      line (e.dims + 1) "checksum += %s_(%s);" name (String.concat ", " idxs))
    extents;
  line 1 "printf(\"checksum %%.17g\\n\", checksum);";
  line 1 "printf(\"kernel %%.6f s\\n\", elapsed);";
  line 1 "return 0;";
  out "}\n";
  Buffer.contents b
