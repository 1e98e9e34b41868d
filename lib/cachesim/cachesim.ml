type config = { line_bytes : int; sets : int; assoc : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_config c =
  if not (is_pow2 c.line_bytes && is_pow2 c.sets && c.assoc > 0) then
    invalid_arg "Cachesim: line_bytes and sets must be powers of two, assoc positive"

let capacity_bytes c = c.line_bytes * c.sets * c.assoc
let line_bytes c = c.line_bytes
let sets c = c.sets
let assoc c = c.assoc
let elem_bytes = 8

let direct_mapped ~capacity_bytes ~line_bytes =
  let c = { line_bytes; sets = capacity_bytes / line_bytes; assoc = 1 } in
  check_config c;
  c

let set_associative ~capacity_bytes ~line_bytes ~assoc =
  let c = { line_bytes; sets = capacity_bytes / (line_bytes * assoc); assoc } in
  check_config c;
  c

type t = {
  config : config;
  tags : int array array; (* per set, per way; -1 = invalid *)
  ages : int array array; (* LRU timestamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let create config =
  check_config config;
  {
    config;
    tags = Array.init config.sets (fun _ -> Array.make config.assoc (-1));
    ages = Array.init config.sets (fun _ -> Array.make config.assoc 0);
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let reset t =
  Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0

let access t addr =
  if addr < 0 then invalid_arg "Cachesim.access: negative address";
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr / t.config.line_bytes in
  let set = line mod t.config.sets in
  let tag = line / t.config.sets in
  let ways = t.tags.(set) and ages = t.ages.(set) in
  let hit = ref false in
  (try
     for w = 0 to t.config.assoc - 1 do
       if ways.(w) = tag then begin
         ages.(w) <- t.clock;
         hit := true;
         raise Exit
       end
     done
   with Exit -> ());
  if !hit then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* victim: invalid way first, else LRU *)
    let victim = ref 0 in
    (try
       for w = 0 to t.config.assoc - 1 do
         if ways.(w) = -1 then begin
           victim := w;
           raise Exit
         end;
         if ages.(w) < ages.(!victim) then victim := w
       done
     with Exit -> ());
    ways.(!victim) <- tag;
    ages.(!victim) <- t.clock;
    false
  end

type stats = { accesses : int; hits : int; misses : int }

let stats (c : t) : stats = { accesses = c.accesses; hits = c.hits; misses = c.accesses - c.hits }
let miss_rate (s : stats) = if s.accesses = 0 then 0.0 else float_of_int s.misses /. float_of_int s.accesses

module Address_map = struct
  type entry = { base : int; dims : int array }
  type map = (string * entry) list

  let create (arrays : (string * int list) list) : map =
    let cursor = ref 0 in
    List.map
      (fun (name, dims) ->
        let cells = List.fold_left (fun acc d -> acc * (d + 1)) 1 dims in
        let base = !cursor in
        cursor := !cursor + (cells * elem_bytes);
        (name, { base; dims = Array.of_list dims }))
      arrays

  let address (m : map) name (index : int array) =
    match List.assoc_opt name m with
    | None -> invalid_arg (Printf.sprintf "Address_map: unknown array %s" name)
    | Some { base; dims } ->
        if Array.length index <> Array.length dims then
          invalid_arg (Printf.sprintf "Address_map: %s expects %d subscripts" name (Array.length dims));
        let flat = ref 0 in
        for j = 0 to Array.length dims - 1 do
          let i = index.(j) and d = dims.(j) in
          if i < 0 || i > d then
            invalid_arg (Printf.sprintf "Address_map: %s subscript %d out of [0,%d]" name i d);
          flat := (!flat * (d + 1)) + i
        done;
        base + (!flat * elem_bytes)
end

let simulate_program config arrays ?max_steps prog ~params =
  let map = Address_map.create arrays in
  let cache = create config in
  Inl_interp.Interp.trace ?max_steps
    (fun name index _ -> ignore (access cache (Address_map.address map name index)))
    prog ~params;
  stats cache

let simulate_program_by_array config arrays ?max_steps prog ~params =
  let map = Address_map.create arrays in
  let cache = create config in
  (* one shared cache — the arrays contend for lines exactly as in
     simulate_program — with hit/miss attribution per array name *)
  let per : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  Inl_interp.Interp.trace ?max_steps
    (fun name index _ ->
      let hit = access cache (Address_map.address map name index) in
      let acc, hits = Option.value ~default:(0, 0) (Hashtbl.find_opt per name) in
      Hashtbl.replace per name (acc + 1, if hit then hits + 1 else hits))
    prog ~params;
  let by_array =
    List.filter_map
      (fun (name, _) ->
        match Hashtbl.find_opt per name with
        | None -> Some (name, { accesses = 0; hits = 0; misses = 0 })
        | Some (acc, hits) -> Some (name, { accesses = acc; hits; misses = acc - hits }))
      arrays
  in
  (by_array, stats cache)
