module Mpz = Inl_num.Mpz
module Sset = Set.Make (String)

type t = Constr.t list

let empty = []
let of_list l = l
let add c sys = c :: sys
let append = ( @ )

let vars sys =
  List.fold_left (fun acc c -> Sset.union acc (Sset.of_list (Constr.vars c))) Sset.empty sys
  |> Sset.elements

let subst sys x e = List.map (fun c -> Constr.subst c x e) sys
let rename f sys = List.map (Constr.rename f) sys

let normalize sys =
  let rec go acc = function
    | [] -> Some (List.sort_uniq Constr.compare acc)
    | c :: rest -> (
        match Constr.normalize c with
        | `True -> go acc rest
        | `False -> None
        | `Constr c -> go (c :: acc) rest)
  in
  go [] sys

(* Canonical form: GCD-tightened, constant-folded, sorted, deduplicated.
   [Constr.compare] is a total order and Linexpr maps are themselves
   canonical, so two systems with the same canonical form describe the
   same constraint set syntactically. *)
let canonicalize sys = normalize sys

let equal a b = List.equal Constr.equal a b

let hash sys = List.fold_left (fun acc c -> (acc * 31) + Constr.hash c) 17 sys

let holds sys env = List.for_all (fun c -> Constr.holds c env) sys

let split_on sys v =
  List.fold_right
    (fun c (eqs, ges, rest) ->
      if not (Constr.mem c v) then (eqs, ges, c :: rest)
      else if Constr.is_eq c then (c :: eqs, ges, rest)
      else (eqs, c :: ges, rest))
    sys ([], [], [])

let solutions_in_box sys box =
  let box_vars = List.map (fun (v, _, _) -> v) box in
  List.iter
    (fun v ->
      if not (List.mem v box_vars) then
        invalid_arg (Printf.sprintf "System.solutions_in_box: %s not in box" v))
    (vars sys);
  let out = ref [] in
  let rec go assignment = function
    | [] ->
        let env x = Mpz.of_int (List.assoc x assignment) in
        if holds sys env then out := List.rev_map (fun v -> List.assoc v assignment) (List.rev box_vars) :: !out
    | (v, lo, hi) :: rest ->
        for x = lo to hi do
          go ((v, x) :: assignment) rest
        done
  in
  go [] box;
  List.rev !out

let pp fmt sys =
  Format.fprintf fmt "{@[<v>%a@]}"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") Constr.pp)
    sys
