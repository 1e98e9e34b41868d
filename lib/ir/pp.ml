(* Pretty-printing of loop-nest programs in the paper's pseudo-code
   notation:

     do I = 1..N
       S1: A(I) = sqrt(A(I))
       do J = I+1..N
         S2: A(J) = A(J) / A(I)
       enddo
     enddo
*)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr
open Ast

let pp_affine = Linexpr.pp

let pp_bterm ~round fmt { num; den } =
  if Mpz.is_one den then pp_affine fmt num
  else
    Format.fprintf fmt "%s(%a, %a)"
      (match round with `Up -> "ceildiv" | `Down -> "floordiv")
      pp_affine num Mpz.pp den

let pp_bound ~round fmt ({ combine; terms } : bound) =
  match terms with
  | [ t ] -> pp_bterm ~round fmt t
  | ts ->
      Format.fprintf fmt "%s(%a)"
        (match combine with `Max -> "max" | `Min -> "min")
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") (pp_bterm ~round))
        ts

let pp_aref fmt { array; index } =
  Format.fprintf fmt "%s(%a)" array
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") pp_affine)
    index

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
let prec = function Add | Sub -> 1 | Mul | Div -> 2

let rec pp_expr ?(ctx = 0) fmt = function
  | Eref r -> pp_aref fmt r
  | Econst f ->
      if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf fmt "%d" (int_of_float f)
      else Format.fprintf fmt "%g" f
  | Evar v -> Format.pp_print_string fmt v
  | Ebin (op, a, b) ->
      let p = prec op in
      let body fmt () =
        Format.fprintf fmt "%a %s %a" (pp_expr ~ctx:p) a (binop_str op) (pp_expr ~ctx:(p + 1)) b
      in
      if p < ctx then Format.fprintf fmt "(%a)" body () else body fmt ()
  | Ecall (f, args) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") (pp_expr ~ctx:0))
        args

let pp_guard fmt = function
  | Gcmp (`Ge, e) -> Format.fprintf fmt "%a >= 0" pp_affine e
  | Gcmp (`Eq, e) -> Format.fprintf fmt "%a = 0" pp_affine e
  | Gdiv (d, e) -> Format.fprintf fmt "%a mod %a = 0" pp_affine e Mpz.pp d

let pp_stmt fmt (s : stmt) =
  Format.fprintf fmt "%s: %a = %a" s.label pp_aref s.lhs (pp_expr ~ctx:0) s.rhs

let rec pp_node fmt = function
  | Stmt s -> pp_stmt fmt s
  | Let (v, { num; den }, body) ->
      if Mpz.is_one den then Format.fprintf fmt "@[<v 2>let %s = %a in@,%a@]" v pp_affine num pp_nodes body
      else
        Format.fprintf fmt "@[<v 2>let %s = (%a) / %a in@,%a@]" v pp_affine num Mpz.pp den
          pp_nodes body
  | If (gs, body) ->
      Format.fprintf fmt "@[<v 2>if (%a) then@,%a@]@,endif"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " and ") pp_guard)
        gs pp_nodes body
  | Loop l ->
      if Mpz.is_one l.step then
        Format.fprintf fmt "@[<v 2>do %s = %a..%a@,%a@]@,enddo" l.var
          (pp_bound ~round:`Up) l.lower (pp_bound ~round:`Down) l.upper pp_nodes l.body
      else
        Format.fprintf fmt "@[<v 2>do %s = %a..%a step %a@,%a@]@,enddo" l.var
          (pp_bound ~round:`Up) l.lower (pp_bound ~round:`Down) l.upper Mpz.pp l.step pp_nodes
          l.body

and pp_nodes fmt nodes =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node fmt nodes

let pp_program fmt (p : program) =
  if p.params <> [] then
    Format.fprintf fmt "params %a@,"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Format.pp_print_string)
      p.params;
  Format.fprintf fmt "@[<v>%a@]" pp_nodes p.nest

let program_to_string (p : program) = Format.asprintf "%a" pp_program p

(* Annotated variant: same layout, but a per-path hook can append a
   comment to loop headers (e.g. "parallel" from the DOALL analysis).
   Comments are not part of the surface grammar, so this printer does
   not round-trip; plain pp_program stays the canonical form. *)

let rec pp_node_annot ~annot ~path fmt node =
  match node with
  | Stmt _ | Let _ | If _ -> pp_plain ~annot ~path fmt node
  | Loop l ->
      let comment =
        match annot (List.rev path) with
        | Some c -> Format.asprintf "  /* %s */" c
        | None -> ""
      in
      let header fmt () =
        if Mpz.is_one l.step then
          Format.fprintf fmt "do %s = %a..%a" l.var (pp_bound ~round:`Up) l.lower
            (pp_bound ~round:`Down) l.upper
        else
          Format.fprintf fmt "do %s = %a..%a step %a" l.var (pp_bound ~round:`Up) l.lower
            (pp_bound ~round:`Down) l.upper Mpz.pp l.step
      in
      Format.fprintf fmt "@[<v 2>%a%s@,%a@]@,enddo" header () comment
        (pp_nodes_annot ~annot ~path) l.body

and pp_plain ~annot ~path fmt = function
  | Stmt s -> pp_stmt fmt s
  | Let (v, { num; den }, body) ->
      if Mpz.is_one den then
        Format.fprintf fmt "@[<v 2>let %s = %a in@,%a@]" v pp_affine num
          (pp_nodes_annot ~annot ~path) body
      else
        Format.fprintf fmt "@[<v 2>let %s = (%a) / %a in@,%a@]" v pp_affine num Mpz.pp den
          (pp_nodes_annot ~annot ~path) body
  | If (gs, body) ->
      Format.fprintf fmt "@[<v 2>if (%a) then@,%a@]@,endif"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " and ") pp_guard)
        gs
        (pp_nodes_annot ~annot ~path)
        body
  | Loop _ as n -> pp_node_annot ~annot ~path fmt n

and pp_nodes_annot ~annot ~path fmt nodes =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut
    (fun fmt (i, n) -> pp_node_annot ~annot ~path:(i :: path) fmt n)
    fmt
    (List.mapi (fun i n -> (i, n)) nodes)

let pp_program_annot ~annot fmt (p : program) =
  if p.params <> [] then
    Format.fprintf fmt "params %a@,"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Format.pp_print_string)
      p.params;
  Format.fprintf fmt "@[<v>%a@]" (pp_nodes_annot ~annot ~path:[]) p.nest

let program_to_string_annot ~annot (p : program) =
  Format.asprintf "%a" (pp_program_annot ~annot) p
