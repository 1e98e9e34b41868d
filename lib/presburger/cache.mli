(** Memoization of Omega projection queries: a structural key plus one
    {!Inl_diag.Memo.Make} instance.

    Keys are the {e canonical} constraint system ({!System.canonicalize}:
    gcd-tightened, constant-folded, sorted, deduplicated), the sorted list
    of answer variables actually kept, and the full resource budget.
    Including the budget makes a cached value bit-identical to what the
    engine would recompute: a query that would [Blowup] under a smaller
    budget can never hit an entry computed under a larger one.  Failed
    (raising) projections are never stored. *)

module Budget = Inl_diag.Budget

type stats = Inl_diag.Memo.stats = { hits : int; misses : int; evictions : int; entries : int }

module Key : sig
  type t = { sys : System.t; kept : string list; budget : Budget.t }
  (** [sys] must be canonical and [kept] sorted for hits to occur. *)

  val equal : t -> t -> bool
  val hash : t -> int
end

include Inl_diag.Memo.S with type key = Key.t
