module Diag = Inl_diag.Diag
module Faults = Inl_diag.Faults
module Snapshot = Inl_serve.Snapshot
module Opt = Inl_diag.Opt

type entry = { name : string; path : string; nums : (string * int) list; faults : string option }

let num e (o : Opt.t) = List.assoc_opt o.Opt.name e.nums
let num_keys = Opt.taken_by Opt.Manifest
let keys = List.map (fun (o : Opt.t) -> o.Opt.name) num_keys @ [ "faults" ]

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
        let apply e kv =
          match String.index_opt kv '=' with
          | None -> Error (err lineno "%S: expected key=value" kv)
          | Some i -> (
              let key = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match (List.find_opt (fun (o : Opt.t) -> o.Opt.name = key) num_keys, key) with
              | Some o, _ ->
                  let set n = { e with nums = (key, n) :: List.remove_assoc key e.nums } in
                  Result.map set (Opt.parse o v) |> Result.map_error (err lineno "%s")
              | None, "faults" -> (
                  match Faults.parse v with
                  | Ok _ -> Ok { e with faults = Some v }
                  | Error m -> Error (err lineno "faults=%s: %s" v m))
              | None, _ -> Error (err lineno "unknown key %S" key))
        in
        let path = if Filename.is_relative path then Filename.concat dir path else path in
        List.fold_left
          (fun acc kv -> Result.bind acc (fun e -> apply e kv))
          (Ok { name; path; nums = []; faults = None })
          kvs
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
