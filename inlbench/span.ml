(* In-memory spans around the benchmark's calls into each layer.

   Spans are recorded only when tracing is on; otherwise [record] is a
   plain call, so the untraced run that produces the end-to-end figures
   pays nothing for them.  A span's parent is the span open on the
   calling domain when it started (the benchmark drives every layer from
   one domain), and every span carries the id of the request it belongs
   to. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a request's root span *)
  req : int;
  input : string;  (** the request's input key *)
  mutable args : (string * float) list;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0
let current_req = ref 0
let current_input = ref ""

let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let start = Unix.gettimeofday () in
    let s = { id; name; start; stop = start; parent; req = !current_req; input = !current_input; args = [] } in
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        recorded := { s with stop = Unix.gettimeofday () } :: !recorded)
      f
  end

(* Attach a named figure to the span that closed last (shown as a trace
   event argument). *)
let note_last key v = match !recorded with s :: _ -> s.args <- (key, v) :: s.args | [] -> ()

let all () = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !recorded
let duration s = s.stop -. s.start

(* Self time per span name: each span's duration minus the durations of
   its direct children.  Spans nest strictly (one domain, call/return
   order), so the self times of one request sum to its root span. *)
let self_times (spans : t list) : (string * float) list =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  let self = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let v = duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      match Hashtbl.find_opt self s.name with
      | Some acc -> Hashtbl.replace self s.name (acc +. v)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace self s.name v)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find self n)) !order

let total name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. spans

(* Chrome trace-event JSON ("X" complete events, microseconds), loadable
   in chrome://tracing and Perfetto. *)
let to_chrome (spans : t list) : string =
  let module J = Inl_serve.Json in
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  let us t = J.Float (Float.round ((t -. t0) *. 1e7) /. 10.) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float (Float.round (duration s *. 1e7) /. 10.));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            ([
                ("id", J.Int s.id);
                ("parent", J.Int s.parent);
                ("req", J.Int s.req);
                ("input", J.String s.input);
              ]
            @ List.rev_map (fun (k, v) -> (k, J.Float v)) s.args) );
      ]
  in
  J.to_string
    (J.Obj [ ("displayTimeUnit", J.String "ms"); ("traceEvents", J.List (List.map event spans)) ])
