(* Crash-safe snapshot files for the serve daemon.

   A snapshot is a one-line header followed by an opaque payload:

     INLSNAP1 <kind> v<version> <payload-bytes> <fnv64-hex>\n
     <payload>

   The header pins four things a restarted daemon must check before it
   trusts a byte of the payload: the magic (is this a snapshot at all),
   the kind (is it the *right* snapshot — a cache dump is not a corpus
   cursor), the format version (can this build read it), and the
   FNV-1a 64 checksum over the payload (did all of it reach the disk).
   Writes go through Inl_diag.Atomicio, so the file on disk is always a
   complete snapshot — old or new — and a SIGKILL between checkpoint
   and rename costs at most the latest delta, never the file. *)

let magic = "INLSNAP1"

(* FNV-1a, 64-bit.  Not cryptographic — the threat model is torn or
   bit-rotted files, not an adversary with write access to the state
   directory (who could simply replace the snapshot wholesale). *)
let fnv64 (s : string) : int64 =
  let offset_basis = 0xcbf29ce484222325L and prime = 0x100000001b3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let header ~kind ~version payload =
  Printf.sprintf "%s %s v%d %d %Lx\n" magic kind version (String.length payload) (fnv64 payload)

let save ~path ~kind ~version payload =
  if String.contains kind ' ' then invalid_arg "Snapshot.save: kind must not contain spaces";
  Inl_diag.Atomicio.write_file_atomic path (header ~kind ~version payload ^ payload)

let load ~path ~kind ~version =
  if not (Sys.file_exists path) then Ok None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | raw -> (
        let corrupt what = Error (Printf.sprintf "%s: corrupt snapshot (%s)" path what) in
        match String.index_opt raw '\n' with
        | None -> corrupt "no header line"
        | Some nl -> (
            let header = String.sub raw 0 nl in
            let body = String.sub raw (nl + 1) (String.length raw - nl - 1) in
            match String.split_on_char ' ' header with
            | [ m; k; v; len; sum ] -> (
                if m <> magic then corrupt "bad magic"
                else if k <> kind then
                  corrupt (Printf.sprintf "kind %S, expected %S" k kind)
                else
                  match
                    ( (if String.length v > 1 && v.[0] = 'v' then
                         int_of_string_opt (String.sub v 1 (String.length v - 1))
                       else None),
                      int_of_string_opt len,
                      Int64.of_string_opt ("0x" ^ sum) )
                  with
                  | Some file_version, _, _ when file_version <> version ->
                      corrupt
                        (Printf.sprintf "format version %d, this build reads %d" file_version
                           version)
                  | Some _, Some n, Some expected ->
                      if String.length body <> n then
                        corrupt
                          (Printf.sprintf "payload truncated (%d of %d bytes)"
                             (String.length body) n)
                      else if fnv64 body <> expected then corrupt "checksum mismatch"
                      else Ok (Some body)
                  | _ -> corrupt "unreadable header fields")
            | _ -> corrupt "malformed header"))
