type phase = { mutable wall_s : float; mutable calls : int }

let lock = Mutex.create ()
let phases_tbl : (string, phase) Hashtbl.t = Hashtbl.create 8

let add name dt =
  Mutex.protect lock (fun () ->
      let p =
        match Hashtbl.find_opt phases_tbl name with
        | Some p -> p
        | None ->
            let p = { wall_s = 0.0; calls = 0 } in
            Hashtbl.add phases_tbl name p;
            p
      in
      p.wall_s <- p.wall_s +. dt;
      p.calls <- p.calls + 1)

let timed name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add name (Unix.gettimeofday () -. t0)) f

let phases () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name p acc -> (name, p.wall_s, p.calls) :: acc) phases_tbl []
      |> List.sort compare)

let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8

let count name n =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c := !c + n
      | None -> Hashtbl.add counters_tbl name (ref n))

let counters () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) counters_tbl [] |> List.sort compare)

(* Per-request scoping for the serve daemon: totals are cumulative for
   the life of the process, so a request's own consumption is the delta
   between two snapshots.  Snapshots are plain assoc lists taken under
   the same lock as the accumulators. *)
type snapshot = {
  snap_phases : (string * float * int) list;
  snap_counters : (string * int) list;
}

let snapshot () = { snap_phases = phases (); snap_counters = counters () }

let since s =
  let now_p = phases () and now_c = counters () in
  let phase_delta =
    List.filter_map
      (fun (name, wall, calls) ->
        let w0, c0 =
          match List.find_opt (fun (n, _, _) -> n = name) s.snap_phases with
          | Some (_, w, c) -> (w, c)
          | None -> (0.0, 0)
        in
        let dw = wall -. w0 and dc = calls - c0 in
        if dc = 0 && dw = 0.0 then None else Some (name, dw, dc))
      now_p
  in
  let counter_delta =
    List.filter_map
      (fun (name, n) ->
        let n0 =
          match List.assoc_opt name s.snap_counters with Some v -> v | None -> 0
        in
        if n = n0 then None else Some (name, n - n0))
      now_c
  in
  (phase_delta, counter_delta)
