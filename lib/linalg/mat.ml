module Mpz = Inl_num.Mpz

type t = Vec.t array

let make r c = Array.init r (fun _ -> Vec.zero c)
let of_int_lists rows = Array.of_list (List.map Vec.of_int_list rows)
let to_int_lists m = Array.to_list m |> List.map (fun r -> Array.to_list (Vec.to_int_array r))

let identity n =
  let m = make n n in
  for i = 0 to n - 1 do
    m.(i).(i) <- Mpz.one
  done;
  m

let rows m = Array.length m
let cols m = if rows m = 0 then 0 else Vec.dim m.(0)
let copy m = Array.map Vec.copy m
let get m i j = m.(i).(j)
let set m i j v = m.(i).(j) <- v
let row m i = m.(i)
let col m j = Array.init (rows m) (fun i -> m.(i).(j))

let transpose m =
  let r = rows m and c = cols m in
  Array.init c (fun j -> Array.init r (fun i -> m.(i).(j)))

let add a b = Array.init (rows a) (fun i -> Vec.add a.(i) b.(i))

let mul a b =
  let r = rows a and c = cols b and k = cols a in
  if k <> rows b then invalid_arg "Mat.mul: dimension mismatch";
  Array.init r (fun i ->
      Array.init c (fun j ->
          let acc = ref Mpz.zero in
          for t = 0 to k - 1 do
            acc := Mpz.add !acc (Mpz.mul a.(i).(t) b.(t).(j))
          done;
          !acc))

let apply m v =
  if cols m <> Vec.dim v then invalid_arg "Mat.apply: dimension mismatch";
  Array.init (rows m) (fun i -> Vec.dot m.(i) v)

let equal a b =
  rows a = rows b && cols a = cols b && Array.for_all2 Vec.equal a b

let append_row m v = Array.append m [| v |]

let sub_matrix m ~row ~col ~rows:r ~cols:c =
  Array.init r (fun i -> Array.init c (fun j -> m.(row + i).(col + j)))

let is_permutation m =
  let n = rows m in
  let colsum = Array.make n 0 in
  cols m = n
  && Array.for_all
       (fun r ->
         let ones = ref 0 in
         Array.iteri (fun j x -> if Mpz.is_one x then (incr ones; colsum.(j) <- colsum.(j) + 1)) r;
         !ones = 1 && Array.for_all (fun x -> Mpz.is_zero x || Mpz.is_one x) r)
       m
  && Array.for_all (fun s -> s = 1) colsum

let permutation_of_list p =
  let n = List.length p in
  let m = make n n in
  List.iteri (fun i pi -> m.(pi).(i) <- Mpz.one) p;
  m

let swap_rows_matrix n i j =
  let m = identity n in
  m.(i).(i) <- Mpz.zero;
  m.(j).(j) <- Mpz.zero;
  m.(i).(j) <- Mpz.one;
  m.(j).(i) <- Mpz.one;
  m

let pp fmt m =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Vec.pp)
    (Array.to_list m)
