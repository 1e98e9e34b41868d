module Mpz = Inl_num.Mpz
module Q = Inl_num.Q

type qmat = Q.t array array

let of_mat (m : Mat.t) : qmat = Array.map (Array.map Q.of_mpz) m

(* Row-reduce [m] in place to row echelon form; returns the list of pivot
   columns in order.  [cols] limits elimination to the first [cols] columns
   (useful when the matrix is augmented). *)
let echelon ?cols (m : qmat) : int list =
  let nr = Array.length m in
  let nc = if nr = 0 then 0 else Array.length m.(0) in
  let limit = match cols with Some c -> c | None -> nc in
  let pivots = ref [] in
  let r = ref 0 in
  let j = ref 0 in
  while !r < nr && !j < limit do
    (* find pivot in column !j at or below row !r *)
    let pr = ref (-1) in
    (try
       for i = !r to nr - 1 do
         if not (Q.is_zero m.(i).(!j)) then begin
           pr := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !pr >= 0 then begin
      let tmp = m.(!r) in
      m.(!r) <- m.(!pr);
      m.(!pr) <- tmp;
      let inv = Q.inv m.(!r).(!j) in
      m.(!r) <- Array.map (fun x -> Q.mul inv x) m.(!r);
      for i = 0 to nr - 1 do
        if i <> !r && not (Q.is_zero m.(i).(!j)) then begin
          let f = m.(i).(!j) in
          m.(i) <- Array.mapi (fun k x -> Q.sub x (Q.mul f m.(!r).(k))) m.(i)
        end
      done;
      pivots := !j :: !pivots;
      incr r
    end;
    incr j
  done;
  List.rev !pivots

let rank m =
  let q = of_mat m in
  List.length (echelon q)

let determinant (m : Mat.t) =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Gauss.determinant: not square";
  (* fraction-free would be nicer; rational elimination is exact anyway *)
  let q = of_mat m in
  let det = ref Q.one in
  (try
     for j = 0 to n - 1 do
       let pr = ref (-1) in
       (try
          for i = j to n - 1 do
            if not (Q.is_zero q.(i).(j)) then begin
              pr := i;
              raise Exit
            end
          done
        with Exit -> ());
       if !pr < 0 then begin
         det := Q.zero;
         raise Exit
       end;
       if !pr <> j then begin
         let tmp = q.(j) in
         q.(j) <- q.(!pr);
         q.(!pr) <- tmp;
         det := Q.neg !det
       end;
       det := Q.mul !det q.(j).(j);
       let inv = Q.inv q.(j).(j) in
       for i = j + 1 to n - 1 do
         if not (Q.is_zero q.(i).(j)) then begin
           let f = Q.mul inv q.(i).(j) in
           q.(i) <- Array.mapi (fun k x -> Q.sub x (Q.mul f q.(j).(k))) q.(i)
         end
       done
     done
   with Exit -> ());
  Q.to_mpz_exn !det

let is_nonsingular m = Mat.rows m = Mat.cols m && rank m = Mat.rows m

let is_unimodular m =
  Mat.rows m = Mat.cols m && Mpz.is_one (Mpz.abs (determinant m))

let inverse (m : Mat.t) : qmat option =
  let n = Mat.rows m in
  if Mat.cols m <> n then None
  else begin
    (* augment with identity and reduce *)
    let aug =
      Array.init n (fun i ->
          Array.init (2 * n) (fun j ->
              if j < n then Q.of_mpz (Mat.get m i j)
              else if j - n = i then Q.one
              else Q.zero))
    in
    let pivots = echelon ~cols:n aug in
    if List.length pivots <> n then None
    else Some (Array.init n (fun i -> Array.sub aug.(i) n n))
  end

let apply_q (m : qmat) (v : Q.t array) =
  Array.map
    (fun r ->
      let acc = ref Q.zero in
      Array.iteri (fun j x -> acc := Q.add !acc (Q.mul x v.(j))) r;
      !acc)
    m

(* Clear denominators of a rational vector and divide by the gcd, fixing
   the sign so the first non-zero entry is positive. *)
let integerize (v : Q.t array) : Vec.t =
  let l = Array.fold_left (fun acc q -> Mpz.lcm acc (Q.den q)) Mpz.one v in
  let iv = Array.map (fun q -> Q.to_mpz_exn (Q.mul q (Q.of_mpz l))) v in
  let g = Vec.gcd iv in
  let iv = if Mpz.is_zero g || Mpz.is_one g then iv else Array.map (fun x -> Mpz.fdiv x g) iv in
  match Vec.height iv with
  | Some h when Mpz.is_negative iv.(h) -> Vec.neg iv
  | _ -> iv

let nullspace (m : Mat.t) : Vec.t list =
  let nc = Mat.cols m in
  let q = of_mat m in
  let pivots = echelon q in
  let pivot_set = Array.make nc false in
  List.iter (fun j -> pivot_set.(j) <- true) pivots;
  let free = List.filter (fun j -> not pivot_set.(j)) (List.init nc Fun.id) in
  (* For each free column, build the basis vector: free var = 1, pivot vars
     solved from the echelon rows. *)
  let npiv = List.length pivots in
  List.map
    (fun f ->
      let v = Array.make nc Q.zero in
      v.(f) <- Q.one;
      List.iteri
        (fun r pj ->
          if r < npiv then
            (* row r: x_pj + sum_{j>pj, nonpivot} m_rj x_j = 0 *)
            v.(pj) <- Q.neg q.(r).(f))
        pivots;
      integerize v)
    free

let solve (m : Mat.t) (b : Vec.t) : Q.t array option =
  let nr = Mat.rows m and nc = Mat.cols m in
  let aug =
    Array.init nr (fun i ->
        Array.init (nc + 1) (fun j ->
            if j < nc then Q.of_mpz (Mat.get m i j) else Q.of_mpz b.(i)))
  in
  let pivots = echelon ~cols:nc aug in
  (* inconsistent iff some row is 0 .. 0 | nonzero *)
  let inconsistent =
    Array.exists
      (fun r ->
        let all0 = ref true in
        for j = 0 to nc - 1 do
          if not (Q.is_zero r.(j)) then all0 := false
        done;
        !all0 && not (Q.is_zero r.(nc)))
      aug
  in
  if inconsistent then None
  else begin
    let x = Array.make nc Q.zero in
    List.iteri
      (fun r pj -> x.(pj) <- aug.(r).(nc))
      pivots;
    Some x
  end

let row_dependency (m : Mat.t) k =
  if k = 0 then if Vec.is_zero m.(0) then Some [||] else None
  else begin
    (* solve  (rows 0..k-1)^T c = row k *)
    let sub = Array.sub m 0 k in
    let att = Mat.transpose sub in
    match solve att m.(k) with
    | None -> None
    | Some c ->
        (* verify (solve only guarantees consistency on pivot rows) *)
        let recon =
          Array.init (Vec.dim m.(k)) (fun j ->
              let acc = ref Q.zero in
              Array.iteri (fun i ci -> acc := Q.add !acc (Q.mul ci (Q.of_mpz sub.(i).(j)))) c;
              !acc)
        in
        if Array.for_all2 (fun a b -> Q.equal a (Q.of_mpz b)) recon m.(k) then Some c else None
  end

let independent_row_indices (m : Mat.t) =
  let kept = ref [] in
  Array.iteri
    (fun i _ ->
      let sub = Array.of_list (List.rev_map (fun j -> m.(j)) !kept) in
      let cand = Mat.append_row sub m.(i) in
      if rank cand > Array.length sub then kept := i :: !kept)
    m;
  List.rev !kept
