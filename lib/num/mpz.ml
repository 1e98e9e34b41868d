(* Arbitrary-precision signed integers: sign-magnitude over base-2^31 limbs.

   Magnitudes are little-endian int arrays with no trailing zero limb; the
   zero value is [{ sign = 0; mag = [||] }].  Keeping values canonical means
   polymorphic equality would be sound, but we still export explicit
   [equal]/[compare].

   Division is bit-serial (shift-and-subtract).  This is O(bits * limbs)
   rather than Knuth's algorithm D, which is acceptable here: coefficients in
   dependence systems start at magnitude <= a few hundred and grow only by
   pairwise products during elimination, so operands stay well under a few
   hundred bits. *)

type t = { sign : int; mag : int array }

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

let zero = { sign = 0; mag = [||] }

(* ---- magnitude primitives ---- *)

let mag_is_zero m = Array.length m = 0

let normalize_mag m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  normalize_mag r

(* Requires [cmp_mag a b >= 0]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize_mag r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai, b.(j) < 2^31 so the product fits in 62 bits; adding two
           31-bit quantities keeps us within the native 63-bit range. *)
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr base_bits;
        incr k
      done
    done;
    normalize_mag r
  end

let bitlen_mag m =
  let l = Array.length m in
  if l = 0 then 0
  else begin
    let top = m.(l - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((l - 1) * base_bits) + width top 0
  end

let test_bit_mag m i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length m && (m.(limb) lsr off) land 1 = 1

(* Shift-and-subtract long division on magnitudes.  Returns (q, r). *)
let divmod_mag a b =
  if mag_is_zero b then raise Division_by_zero;
  if cmp_mag a b < 0 then ([||], a)
  else begin
    let nbits = bitlen_mag a in
    let nlimbs = Array.length a in
    let q = Array.make nlimbs 0 in
    (* Mutable remainder buffer, little-endian, one spare limb for shifts. *)
    let r = Array.make (Array.length b + 2) 0 in
    let rlen = ref 0 in
    let shl1_add bit =
      (* r := r*2 + bit *)
      let carry = ref bit in
      for i = 0 to !rlen - 1 do
        let t = (r.(i) lsl 1) lor !carry in
        r.(i) <- t land limb_mask;
        carry := t lsr base_bits
      done;
      if !carry <> 0 then begin
        r.(!rlen) <- !carry;
        incr rlen
      end
    in
    let r_ge_b () =
      let lb = Array.length b in
      if !rlen <> lb then !rlen > lb
      else
        let rec go i =
          if i < 0 then true
          else if r.(i) <> b.(i) then r.(i) > b.(i)
          else go (i - 1)
        in
        go (!rlen - 1)
    in
    let r_sub_b () =
      let lb = Array.length b in
      let borrow = ref 0 in
      for i = 0 to !rlen - 1 do
        let bi = if i < lb then b.(i) else 0 in
        let d = r.(i) - bi - !borrow in
        if d < 0 then begin
          r.(i) <- d + base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done;
      while !rlen > 0 && r.(!rlen - 1) = 0 do
        decr rlen
      done
    in
    for i = nbits - 1 downto 0 do
      shl1_add (if test_bit_mag a i then 1 else 0);
      if r_ge_b () then begin
        r_sub_b ();
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (normalize_mag q, normalize_mag (Array.sub r 0 !rlen))
  end

(* ---- signed layer ---- *)

let make sign mag = if mag_is_zero mag then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let negative = n < 0 in
    (* [-min_int] overflows back to [min_int], but [lsr]/[land] read the bit
       pattern as an unsigned 63-bit value, which for [min_int] is exactly
       2^62 = |min_int| — so the limb decomposition below is correct for
       every native int. *)
    let v = if negative then -n else n in
    let rec limbs v acc =
      if v = 0 then acc else limbs (v lsr base_bits) ((v land limb_mask) :: acc)
    in
    let magnitude = Array.of_list (List.rev (limbs v [])) in
    make (if negative then -1 else 1) magnitude
  end

let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2

let sign x = x.sign
let is_zero x = x.sign = 0
let is_negative x = x.sign < 0
let is_positive x = x.sign > 0

let fits_int x =
  (* Native ints hold 62 magnitude bits plus sign. *)
  let bl = bitlen_mag x.mag in
  bl < 63 || (bl = 63 && x.sign < 0 && cmp_mag x.mag (of_int Stdlib.min_int).mag <= 0)

let to_int_opt x =
  if not (fits_int x) then None
  else begin
    let v = ref 0 in
    for i = Array.length x.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor x.mag.(i)
    done;
    Some (if x.sign < 0 then - !v else !v)
  end

let to_int x =
  match x.mag with
  | [||] -> 0
  | [| l |] -> if x.sign < 0 then -l else l (* one limb always fits *)
  | _ -> ( match to_int_opt x with Some v -> v | None -> failwith "Mpz.to_int: overflow")

let neg x = { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x
let num_bits x = bitlen_mag x.mag

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then { sign = x.sign; mag = add_mag x.mag y.mag }
  else begin
    let c = cmp_mag x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then { sign = x.sign; mag = sub_mag x.mag y.mag }
    else { sign = y.sign; mag = sub_mag y.mag x.mag }
  end

let sub x y = add x (neg y)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else { sign = x.sign * y.sign; mag = mul_mag x.mag y.mag }

let succ x = add x one
let pred x = sub x one

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q_mag, r_mag = divmod_mag a.mag b.mag in
  let q = make (a.sign * b.sign) q_mag in
  let r = make a.sign r_mag in
  (q, r)

let compare x y =
  if x.sign <> y.sign then Stdlib.compare x.sign y.sign
  else if x.sign >= 0 then cmp_mag x.mag y.mag
  else cmp_mag y.mag x.mag

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let fdiv a b =
  let q, r = divmod a b in
  (* adjust truncated toward floor *)
  if is_zero r || (r.sign = b.sign) then q else pred q

let cdiv a b =
  let q, r = divmod a b in
  if is_zero r || r.sign <> b.sign then q else succ q

let fmod a b = sub a (mul (fdiv a b) b)

let rec gcd_pos a b = if is_zero b then a else gcd_pos b (snd (divmod a b))
let gcd a b = gcd_pos (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else
    let g = gcd a b in
    abs (mul (fst (divmod a g)) b)

let hash x = Hashtbl.hash (x.sign, x.mag)

let pow x n =
  if n < 0 then invalid_arg "Mpz.pow: negative exponent";
  let rec go acc b n = if n = 0 then acc else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1) else go acc (mul b b) (n lsr 1) in
  go one x n

let ten = of_int 10

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec digits v =
      if is_zero v then ()
      else begin
        let q, r = divmod v ten in
        digits q;
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int r))
      end
    in
    digits (abs x);
    (if x.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Mpz.of_string: empty string";
  let negative, start =
    if s.[0] = '-' then (true, 1) else if s.[0] = '+' then (false, 1) else (false, 0)
  in
  if start >= n then invalid_arg "Mpz.of_string: no digits";
  let acc = ref zero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Mpz.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let is_one x = equal x one

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) x y = not (equal x y)
  let ( < ) x y = compare x y < 0
  let ( <= ) x y = compare x y <= 0
  let ( > ) x y = compare x y > 0
  let ( >= ) x y = compare x y >= 0
end
