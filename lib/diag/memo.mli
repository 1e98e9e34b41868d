(** Process-wide memoization: the one two-generation table of the tree.

    One mutex around a two-generation hash table — inserts fill a young
    generation; filling it retires the old one, so an entry unused for
    two generations is evicted in O(1), with no LRU list to rebalance
    under the lock — plus hit/miss/eviction counters for
    [inltool --stats].  A hit in the old generation moves the entry to
    the young one.

    Callers key entries on a value they guarantee determines the stored
    value bit-for-bit, so a hit is indistinguishable from a recompute;
    that is what lets the search share one table across [--jobs] worker
    domains without breaking its byte-identity contract.  Two domains
    racing on a cold key may both compute the value — the duplicate
    insert is benign because the values are equal.

    A table created with [~name] joins the process-wide registry, which
    drives every named table at once: [--no-cache] is one
    {!set_all_enabled}, the corpus runner's cold start one {!clear_all},
    and [--stats] one loop over {!all_stats}. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val hit_rate : stats -> float
(** Hits over lookups; [0.0] when no lookups happened. *)

module type S = sig
  type key
  type 'a t

  val create : ?name:string -> ?max_entries:int -> unit -> 'a t
  (** [max_entries] (default 4096, clamped to >= 1) is the size of each
      generation; resident entries are bounded by twice that.  [name]
      registers the table; create named tables at module initialization
      only. *)

  val set_enabled : 'a t -> bool -> unit
  (** A disabled table answers every {!find} with [None], stores nothing,
      and counts nothing — the [--no-cache] contract: results are
      identical either way. *)

  val enabled : 'a t -> bool
  val find : 'a t -> key -> 'a option
  val add : 'a t -> key -> 'a -> unit

  val memo : 'a t -> key -> (unit -> 'a) -> 'a
  (** [memo t key f] is [find]-or-compute-and-[add].  [f] runs outside
      the table's mutex; exceptions from [f] propagate and store
      nothing. *)

  val clear : 'a t -> unit
  (** Drops all entries and zeroes the counters. *)

  val stats : 'a t -> stats

  val export : 'a t -> string
  (** Serialize every resident entry (both generations) with [Marshal] —
      keys and values must be plain immutable data, so the dump
      round-trips exactly.  Counters are not included: a restored table
      starts cold statistically but warm in content. *)

  val import : 'a t -> string -> (int, string) result
  (** Re-add the entries of an {!export} dump of a table of the same
      type, returning how many were read.  Never trusts the payload: a
      truncated or corrupted dump returns [Error] and leaves the table
      unchanged (callers wrap dumps in a checksummed container —
      {!Inl_serve}'s snapshot format — so this is the second line of
      defense). *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t

include S with type key := string
(** The string-keyed tables of the legality, reuse and search layers. *)

(** {2 The registry} *)

val set_all_enabled : bool -> unit
(** {!S.set_enabled} on every named table. *)

val clear_all : unit -> unit
(** {!S.clear} on every named table. *)

val all_stats : unit -> (string * bool * stats) list
(** [(name, enabled, stats)] of every named table, in creation order. *)
