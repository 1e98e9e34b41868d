module Ast = Inl_ir.Ast
module Pp = Inl_ir.Pp
module Parser = Inl_ir.Parser

type cursor = { seed : int; cases_done : int }

let rec ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      if Sys.is_directory dir then Ok () else Error (dir ^ ": exists and is not a directory")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
      match ensure_dir (Filename.dirname dir) with
      | Error _ as e -> e
      | Ok () -> (
          match Unix.mkdir dir 0o755 with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
              Error (dir ^ ": " ^ Unix.error_message e)))
  | exception Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* temp + fsync + rename + directory fsync (Inl_diag.Atomicio — the same
   discipline the serve snapshots use), so the visible file is never
   half-written and the replacement is durable even if the campaign is
   SIGKILLed mid-update *)
let write_file_atomic path contents = Inl_diag.Atomicio.write_file_atomic_exn path contents

let cursor_path dir = Filename.concat dir "cursor"

let read_cursor ~dir =
  let path = cursor_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    let parse line (acc : (int option * int option)) =
      match String.split_on_char ' ' (String.trim line) with
      | [ "seed"; v ] -> (
          match int_of_string_opt v with
          | Some s -> Ok (Some s, snd acc)
          | None -> Error ())
      | [ "done"; v ] -> (
          match int_of_string_opt v with
          | Some d -> Ok (fst acc, Some d)
          | None -> Error ())
      | [ "" ] -> Ok acc
      | _ -> Error ()
    in
    let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
    let folded =
      List.fold_left
        (fun acc line -> match acc with Error _ -> acc | Ok a -> parse line a)
        (Ok (None, None))
        lines
    in
    match folded with
    | Ok (Some seed, Some cases_done) when cases_done >= 0 ->
        Ok (Some { seed; cases_done })
    | _ -> Error (path ^ ": unreadable cursor file (delete it to start the campaign over)")

let write_cursor ~dir { seed; cases_done } =
  write_file_atomic (cursor_path dir) (Printf.sprintf "seed %d\ndone %d\n" seed cases_done)

let write_finding_base ~dir ~base ~signature ~detail ~prog ~tf ~orig_prog ~orig_tf =
  let file ext = Filename.concat dir (base ^ ext) in
  write_file (file ".inl") (Pp.program_to_string prog);
  write_file (file ".tf") (Tf.to_string tf);
  write_file (file "-orig.inl") (Pp.program_to_string orig_prog);
  write_file (file "-orig.tf") (Tf.to_string orig_tf);
  write_file (file "-detail.txt")
    (Printf.sprintf "signature: %s\ndetail: %s\nreplay: inltool fuzz --replay %s\n"
       (Oracle.signature_to_string signature)
       detail
       (Filename.concat dir base));
  base

let write_finding ~dir ~index ~signature ~detail ~prog ~tf ~orig_prog ~orig_tf =
  let base = Printf.sprintf "finding-%d-%s" index (Oracle.signature_to_string signature) in
  write_finding_base ~dir ~base ~signature ~detail ~prog ~tf ~orig_prog ~orig_tf

let load_case ~inl ~tf =
  match In_channel.with_open_bin inl In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
      match Parser.parse src with
      | Error msg -> Error (inl ^ ": " ^ msg)
      | Ok prog -> (
          match In_channel.with_open_bin tf In_channel.input_all with
          | exception Sys_error msg -> Error msg
          | spec -> (
              match Tf.of_string spec with
              | Error msg -> Error (tf ^ ": " ^ msg)
              | Ok recipe -> Ok (prog, recipe))))

let write_summary ~dir line = write_file_atomic (Filename.concat dir "summary") (line ^ "\n")
