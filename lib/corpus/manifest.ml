module Diag = Inl_diag.Diag
module Faults = Inl_diag.Faults
module Snapshot = Inl_serve.Snapshot
module Search = Inl_search.Search

type entry = {
  name : string;
  path : string;
  size : int option;
  seed : int option;
  beam : int option;
  depth : int option;
  finalists : int option;
  timeout_ms : int option;
  budget : int option;
  faults : string option;
  run : int option;
  threads : int option;
}

type t = { dir : string; entries : entry list; fingerprint : string }

let err line fmt =
  Format.kasprintf
    (fun m -> Diag.errorf ~code:"K701" ~phase:Diag.Corpus "manifest line %d: %s" line m)
    fmt

let name_ok name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       name

(* "kernel name path k=v k=v" split on runs of spaces/tabs *)
let tokens line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun s -> s <> "")

let parse_entry ~dir ~lineno rest =
  match rest with
  | name :: path :: kvs ->
      if not (name_ok name) then
        Error (err lineno "kernel name %S: use [A-Za-z0-9_.-]+ (it names records and findings)" name)
      else
        let entry =
          ref
            {
              name;
              path = (if Filename.is_relative path then Filename.concat dir path else path);
              size = None;
              seed = None;
              beam = None;
              depth = None;
              finalists = None;
              timeout_ms = None;
              budget = None;
              faults = None;
              run = None;
              threads = None;
            }
        in
        let set_int key v ~min set =
          match int_of_string_opt v with
          | Some n when n >= min -> Ok (entry := set !entry n)
          | _ -> Error (err lineno "%s=%s: expected an integer >= %d" key v min)
        in
        (* search options: range-checked below, by the search's own rule *)
        let set_search key v set =
          match int_of_string_opt v with
          | Some n -> Ok (entry := set !entry n)
          | None -> Error (err lineno "%s=%s: expected an integer" key v)
        in
        let apply kv =
          match String.index_opt kv '=' with
          | None -> Error (err lineno "%S: expected key=value" kv)
          | Some i -> (
              let key = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match key with
              | "size" -> set_search key v (fun e n -> { e with size = Some n })
              | "seed" -> set_search key v (fun e n -> { e with seed = Some n })
              | "beam" -> set_search key v (fun e n -> { e with beam = Some n })
              | "depth" -> set_search key v (fun e n -> { e with depth = Some n })
              | "finalists" -> set_search key v (fun e n -> { e with finalists = Some n })
              | "timeout_ms" -> set_int key v ~min:0 (fun e n -> { e with timeout_ms = Some n })
              | "budget" -> set_int key v ~min:1 (fun e n -> { e with budget = Some n })
              | "run" -> set_int key v ~min:1 (fun e n -> { e with run = Some n })
              | "threads" -> set_int key v ~min:1 (fun e n -> { e with threads = Some n })
              | "faults" -> (
                  match Faults.parse v with
                  | Ok _ -> Ok (entry := { !entry with faults = Some v })
                  | Error m -> Error (err lineno "faults=%s: %s" v m))
              | _ -> Error (err lineno "unknown key %S" key))
        in
        let rec go = function
          | [] -> (
              let e = !entry in
              match
                Search.configure ?beam:e.beam ?depth:e.depth ?finalists:e.finalists
                  ?size:e.size ?seed:e.seed ()
              with
              | Ok _ -> Ok e
              | Error m -> Error (err lineno "%s" m))
          | kv :: rest -> ( match apply kv with Ok () -> go rest | Error _ as e -> e)
        in
        go kvs
  | _ -> Error (err lineno "expected: kernel <name> <path> [key=value ...]")

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m ->
      Error [ Diag.errorf ~code:"K700" ~phase:Diag.Corpus "cannot read manifest: %s" m ]
  | text ->
      let dir = Filename.dirname path in
      let lines = String.split_on_char '\n' text in
      let entries, errors, _ =
        List.fold_left
          (fun (entries, errors, lineno) line ->
            let lineno = lineno + 1 in
            match tokens line with
            | [] -> (entries, errors, lineno)
            | first :: _ when String.length first > 0 && first.[0] = '#' ->
                (entries, errors, lineno)
            | "kernel" :: rest -> (
                match parse_entry ~dir ~lineno rest with
                | Ok e -> (e :: entries, errors, lineno)
                | Error d -> (entries, d :: errors, lineno))
            | first :: _ ->
                (entries, err lineno "unknown directive %S (expected \"kernel\")" first :: errors,
                 lineno))
          ([], [], 0) lines
      in
      let entries = List.rev entries in
      let dup_errors =
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun e ->
            if Hashtbl.mem seen e.name then
              Some
                (Diag.errorf ~code:"K701" ~phase:Diag.Corpus
                   "duplicate kernel name %S in manifest" e.name)
            else begin
              Hashtbl.add seen e.name ();
              None
            end)
          entries
      in
      let errors = List.rev errors @ dup_errors in
      if errors <> [] then Error errors
      else if entries = [] then
        Error [ Diag.errorf ~code:"K701" ~phase:Diag.Corpus "manifest names no kernels" ]
      else Ok { dir; entries; fingerprint = Printf.sprintf "%Lx" (Snapshot.fnv64 text) }
