module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Mpz = Inl_num.Mpz
module Diag = Inl_diag.Diag

type edit = Negate_row of int | Add_entry of { row : int; col : int; delta : int }

type t = { steps : Inl.Pipeline.step list; partial : int list list; edits : edit list }

let expected_legal t = t.partial <> [] && t.edits = []

(* ---- text format ----

     tf v1
     step interchange I,J
     row 0,0,1,0
     edit negrow 2
     edit add 1,3,-1

   Lines are independent; '#' starts a comment.  A step line is parsed
   once, here, into a typed step; everything this module prints parses
   back to the same recipe, which the corpus relies on. *)

let ints_to_spec ns = String.concat "," (List.map string_of_int ns)

let to_string t =
  let b = Buffer.create 128 in
  Buffer.add_string b "tf v1\n";
  List.iter
    (fun step ->
      let kind, spec = Inl.Pipeline.spec_of_step step in
      Buffer.add_string b (Printf.sprintf "step %s %s\n" kind spec))
    t.steps;
  List.iter (fun row -> Buffer.add_string b (Printf.sprintf "row %s\n" (ints_to_spec row))) t.partial;
  List.iter
    (fun e ->
      Buffer.add_string b
        (match e with
        | Negate_row r -> Printf.sprintf "edit negrow %d\n" r
        | Add_entry { row; col; delta } -> Printf.sprintf "edit add %d,%d,%d\n" row col delta))
    t.edits;
  Buffer.contents b

let parse_ints s =
  let parts = String.split_on_char ',' (String.trim s) in
  try Ok (List.map (fun p -> int_of_string (String.trim p)) parts)
  with Failure _ -> Error (Printf.sprintf "bad integer list %S" s)

let of_string src : (t, string) result =
  let lines = String.split_on_char '\n' src in
  let strip l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
  let rec go acc = function
    | [] ->
        Ok
          {
            steps = List.rev acc.steps;
            partial = List.rev acc.partial;
            edits = List.rev acc.edits;
          }
    | line :: rest -> (
        let line = String.trim (strip line) in
        if line = "" || line = "tf v1" then go acc rest
        else
          match String.split_on_char ' ' line with
          | "step" :: kind :: spec -> (
              match Inl.Pipeline.step_of_spec ~kind (String.concat " " spec) with
              | Ok step -> go { acc with steps = step :: acc.steps } rest
              | Error _ -> Error (Printf.sprintf "bad step line %S" line))
          | [ "row"; spec ] -> (
              match parse_ints spec with
              | Ok row -> go { acc with partial = row :: acc.partial } rest
              | Error e -> Error e)
          | [ "edit"; "negrow"; r ] -> (
              match int_of_string_opt r with
              | Some r -> go { acc with edits = Negate_row r :: acc.edits } rest
              | None -> Error (Printf.sprintf "bad edit line %S" line))
          | [ "edit"; "add"; spec ] -> (
              match parse_ints spec with
              | Ok [ row; col; delta ] ->
                  go { acc with edits = Add_entry { row; col; delta } :: acc.edits } rest
              | Ok _ | Error _ -> Error (Printf.sprintf "bad edit line %S" line))
          | _ -> Error (Printf.sprintf "unrecognized transformation line %S" line))
  in
  go { steps = []; partial = []; edits = [] } lines

(* ---- materialization ---- *)

let apply_edits (m : Mat.t) (edits : edit list) : (Mat.t, string) result =
  let m = Mat.copy m in
  let rows = Mat.rows m and cols = Mat.cols m in
  let rec go = function
    | [] -> Ok m
    | Negate_row r :: rest ->
        if r < 0 || r >= rows then Error (Printf.sprintf "edit negrow %d out of range" r)
        else begin
          for c = 0 to cols - 1 do
            Mat.set m r c (Mpz.neg (Mat.get m r c))
          done;
          go rest
        end
    | Add_entry { row; col; delta } :: rest ->
        if row < 0 || row >= rows || col < 0 || col >= cols then
          Error (Printf.sprintf "edit add %d,%d out of range" row col)
        else begin
          Mat.set m row col (Mpz.add (Mat.get m row col) (Mpz.of_int delta));
          go rest
        end
  in
  go edits

let materialize (ctx : Inl.context) (t : t) : (Mat.t, string) result =
  let base =
    match (t.partial, t.steps) with
    | [], [] -> Ok (Inl.Tmat.identity ctx.Inl.layout)
    | _ :: _, _ :: _ -> Error "a recipe cannot mix completion rows with pipeline steps"
    | partial, [] ->
        let size = Inl.Layout.size ctx.Inl.layout in
        if List.exists (fun r -> List.length r <> size) partial then
          Error
            (Printf.sprintf "partial row length does not match the layout size (%d)" size)
        else (
          match Inl.complete_result ctx ~partial:(List.map Vec.of_int_list partial) with
          | Ok m -> Ok m
          | Error ds -> Error (Diag.list_to_string ds))
    | [], steps -> Result.map_error Diag.list_to_string (Inl.pipeline ctx steps)
  in
  match base with Error _ as e -> e | Ok m -> apply_edits m t.edits
