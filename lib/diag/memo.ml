type stats = { hits : int; misses : int; evictions : int; entries : int }

let hit_rate (s : stats) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

(* ---- the registry of named process-wide tables ---- *)

type registered = {
  name : string;
  set_enabled : bool -> unit;
  enabled : unit -> bool;
  clear : unit -> unit;
  stats : unit -> stats;
}

(* Most recent first.  Named tables are created at module initialization,
   before any worker domain exists, so the list needs no lock. *)
let registry : registered list ref = ref []

let set_all_enabled b = List.iter (fun r -> r.set_enabled b) !registry
let clear_all () = List.iter (fun r -> r.clear ()) !registry
let all_stats () = List.rev_map (fun r -> (r.name, r.enabled (), r.stats ())) !registry

module type S = sig
  type key
  type 'a t

  val create : ?name:string -> ?max_entries:int -> unit -> 'a t
  val set_enabled : 'a t -> bool -> unit
  val enabled : 'a t -> bool
  val find : 'a t -> key -> 'a option
  val add : 'a t -> key -> 'a -> unit
  val memo : 'a t -> key -> (unit -> 'a) -> 'a
  val clear : 'a t -> unit
  val stats : 'a t -> stats
  val export : 'a t -> string
  val import : 'a t -> string -> (int, string) result
end

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'a t = {
    mutex : Mutex.t;
    max_entries : int;
    mutable young : 'a H.t;
    mutable old : 'a H.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable on : bool;
  }

  let locked t f = Mutex.protect t.mutex f
  let set_enabled t b = locked t (fun () -> t.on <- b)
  let enabled t = locked t (fun () -> t.on)

  (* Inserts (fresh adds and old-to-young promotions alike) fill the
     young generation; when it is full the old generation is retired
     wholesale. *)
  let insert t key v =
    H.replace t.young key v;
    if H.length t.young >= t.max_entries then begin
      t.evictions <- t.evictions + H.length t.old;
      t.old <- t.young;
      t.young <- H.create 64
    end

  let find t key =
    locked t (fun () ->
        if not t.on then None
        else
          match H.find_opt t.young key with
          | Some v ->
              t.hits <- t.hits + 1;
              Some v
          | None -> (
              match H.find_opt t.old key with
              | Some v ->
                  (* moved, not copied: a key lives in one generation, so
                     it is counted once in [entries] and in [evictions] *)
                  H.remove t.old key;
                  t.hits <- t.hits + 1;
                  insert t key v;
                  Some v
              | None ->
                  t.misses <- t.misses + 1;
                  None))

  let add t key v = locked t (fun () -> if t.on then insert t key v)

  let memo t key f =
    match find t key with
    | Some v -> v
    | None ->
        let v = f () in
        add t key v;
        v

  let clear t =
    locked t (fun () ->
        H.reset t.young;
        H.reset t.old;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  let stats t =
    locked t (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          evictions = t.evictions;
          entries = H.length t.young + H.length t.old;
        })

  (* The old generation is dumped first and the young one second: import
     re-adds in order, so after a restore the young table holds what was
     young at export time and recency survives the round trip
     approximately. *)
  let export t =
    let entries =
      locked t (fun () ->
          let take tbl = H.fold (fun k v acc -> (k, v) :: acc) tbl [] in
          Array.of_list (take t.old @ take t.young))
    in
    Marshal.to_string entries []

  let import (t : 'a t) payload =
    match (Marshal.from_string payload 0 : (key * 'a) array) with
    | exception _ -> Error "unreadable cache dump (truncated or from an incompatible build)"
    | entries ->
        Array.iter (fun (k, v) -> add t k v) entries;
        Ok (Array.length entries)

  let create ?name ?(max_entries = 4096) () =
    let t =
      {
        mutex = Mutex.create ();
        max_entries = max 1 max_entries;
        young = H.create 64;
        old = H.create 64;
        hits = 0;
        misses = 0;
        evictions = 0;
        on = true;
      }
    in
    Option.iter
      (fun name ->
        registry :=
          {
            name;
            set_enabled = set_enabled t;
            enabled = (fun () -> enabled t);
            clear = (fun () -> clear t);
            stats = (fun () -> stats t);
          }
          :: !registry)
      name;
    t
end

include Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)
