module Budget = Inl_diag.Budget

type stats = Inl_diag.Memo.stats = { hits : int; misses : int; evictions : int; entries : int }

module Key = struct
  type t = { sys : System.t; kept : string list; budget : Budget.t }

  let equal a b =
    System.equal a.sys b.sys
    && List.equal String.equal a.kept b.kept
    (* Budget.t is a flat record of ints, so structural comparison and
       [Hashtbl.hash] are exact. *)
    && a.budget = b.budget

  let hash k =
    let h = System.hash k.sys in
    let h = List.fold_left (fun acc v -> (acc * 31) + Hashtbl.hash v) h k.kept in
    (h * 31) + Hashtbl.hash k.budget
end

include Inl_diag.Memo.Make (Key)
