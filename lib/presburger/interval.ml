module Mpz = Inl_num.Mpz

type bound = NegInf | Fin of Mpz.t | PosInf
type t = { lo : bound; hi : bound }

(* Comparison treating the bound as a lower endpoint (NegInf smallest) —
   and symmetrically for upper endpoints.  The two agree except that they
   are distinguished for documentation at call sites. *)
let bound_compare_lo a b =
  match (a, b) with
  | NegInf, NegInf | PosInf, PosInf -> 0
  | NegInf, _ -> -1
  | _, NegInf -> 1
  | PosInf, _ -> 1
  | _, PosInf -> -1
  | Fin x, Fin y -> Mpz.compare x y

let bound_compare_hi = bound_compare_lo

let make lo hi = { lo; hi }
let point v = { lo = Fin v; hi = Fin v }
let of_int n = point (Mpz.of_int n)
let of_ints a b = { lo = Fin (Mpz.of_int a); hi = Fin (Mpz.of_int b) }
let top = { lo = NegInf; hi = PosInf }
let plus = { lo = Fin Mpz.one; hi = PosInf }
let minus = { lo = NegInf; hi = Fin Mpz.minus_one }
let zero = point Mpz.zero

let is_empty t =
  match (t.lo, t.hi) with
  | Fin a, Fin b -> Mpz.compare a b > 0
  | PosInf, _ | _, NegInf -> true
  | _ -> false

let is_point t =
  match (t.lo, t.hi) with
  | Fin a, Fin b when Mpz.equal a b -> Some a
  | _ -> None

let contains t v =
  (match t.lo with NegInf -> true | Fin a -> Mpz.compare a v <= 0 | PosInf -> false)
  && match t.hi with PosInf -> true | Fin b -> Mpz.compare v b <= 0 | NegInf -> false

let definitely_positive t =
  (not (is_empty t)) && match t.lo with Fin a -> Mpz.is_positive a | PosInf -> true | NegInf -> false

let definitely_negative t =
  (not (is_empty t)) && match t.hi with Fin b -> Mpz.is_negative b | NegInf -> true | PosInf -> false

let definitely_zero t = match is_point t with Some v -> Mpz.is_zero v | None -> false

let definitely_nonneg t =
  (not (is_empty t)) && match t.lo with Fin a -> Mpz.sign a >= 0 | PosInf -> true | NegInf -> false

let badd a b =
  match (a, b) with
  | NegInf, PosInf | PosInf, NegInf -> invalid_arg "Interval: oo + -oo"
  | NegInf, _ | _, NegInf -> NegInf
  | PosInf, _ | _, PosInf -> PosInf
  | Fin x, Fin y -> Fin (Mpz.add x y)

let add a b = { lo = badd a.lo b.lo; hi = badd a.hi b.hi }

let bneg = function NegInf -> PosInf | PosInf -> NegInf | Fin x -> Fin (Mpz.neg x)
let neg t = { lo = bneg t.hi; hi = bneg t.lo }

let bscale k = function
  | NegInf -> if Mpz.is_negative k then PosInf else NegInf
  | PosInf -> if Mpz.is_negative k then NegInf else PosInf
  | Fin x -> Fin (Mpz.mul k x)

let scale k t =
  if Mpz.is_zero k then point Mpz.zero
  else if Mpz.is_positive k then { lo = bscale k t.lo; hi = bscale k t.hi }
  else { lo = bscale k t.hi; hi = bscale k t.lo }

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else
    {
      lo = (if bound_compare_lo a.lo b.lo <= 0 then a.lo else b.lo);
      hi = (if bound_compare_hi a.hi b.hi >= 0 then a.hi else b.hi);
    }

let inter a b =
  {
    lo = (if bound_compare_lo a.lo b.lo >= 0 then a.lo else b.lo);
    hi = (if bound_compare_hi a.hi b.hi <= 0 then a.hi else b.hi);
  }

let equal a b =
  if is_empty a && is_empty b then true
  else bound_compare_lo a.lo b.lo = 0 && bound_compare_hi a.hi b.hi = 0

let to_symbol t =
  match is_point t with
  | Some v -> Mpz.to_string v
  | None -> (
      match (t.lo, t.hi) with
      | NegInf, PosInf -> "*"
      | Fin a, PosInf when Mpz.is_one a -> "+"
      | Fin a, PosInf when Mpz.is_zero a -> "+0"
      | NegInf, Fin b when Mpz.equal b Mpz.minus_one -> "-"
      | NegInf, Fin b when Mpz.is_zero b -> "-0"
      | Fin a, PosInf -> Printf.sprintf "[%s,oo)" (Mpz.to_string a)
      | NegInf, Fin b -> Printf.sprintf "(-oo,%s]" (Mpz.to_string b)
      | Fin a, Fin b -> Printf.sprintf "[%s,%s]" (Mpz.to_string a) (Mpz.to_string b)
      | PosInf, _ | _, NegInf -> "(empty)")

let pp fmt t = Format.pp_print_string fmt (to_symbol t)
