module Mat = Inl_linalg.Mat
module Ast = Inl_ir.Ast
module Layout = Inl_instance.Layout
module Diag = Inl_diag.Diag

type step =
  | Interchange of string * string
  | Reverse of string
  | Scale of string * int
  | Skew of { target : string; source : string; factor : int }
  | Align of { stmt : string; loop : string; amount : int }
  | Reorder of { parent : Ast.path; perm : int list }

let pp_step fmt = function
  | Interchange (a, b) -> Format.fprintf fmt "interchange %s<->%s" a b
  | Reverse v -> Format.fprintf fmt "reverse %s" v
  | Scale (v, k) -> Format.fprintf fmt "scale %s by %d" v k
  | Skew { target; source; factor } -> Format.fprintf fmt "skew %s by %d*%s" target factor source
  | Align { stmt; loop; amount } -> Format.fprintf fmt "align %s w.r.t. %s by %d" stmt loop amount
  | Reorder { parent; perm } ->
      Format.fprintf fmt "reorder [%s] by (%s)"
        (String.concat ";" (List.map string_of_int parent))
        (String.concat "," (List.map string_of_int perm))

let build (layout : Layout.t) (step : step) : Mat.t =
  match step with
  | Interchange (a, b) -> Tmat.interchange layout a b
  | Reverse v -> Tmat.reversal layout v
  | Scale (v, k) -> Tmat.scaling layout v k
  | Skew { target; source; factor } -> Tmat.skew layout ~target ~source ~factor
  | Align { stmt; loop; amount } -> Tmat.align layout ~stmt ~loop ~amount
  | Reorder { parent; perm } -> Tmat.reorder layout ~parent ~perm

(* Surface syntax of one step, as used by the CLI's --interchange /
   --reverse / ... options. *)
let step_of_spec ~(kind : string) (spec : string) : (step, string) result =
  let parts = String.split_on_char ',' spec in
  let fail () = Error (Printf.sprintf "bad --%s argument %S" kind spec) in
  match (kind, parts) with
  | "interchange", [ a; b ] -> Ok (Interchange (a, b))
  | "reverse", [ v ] -> Ok (Reverse v)
  | "scale", [ v; k ] -> (
      match int_of_string_opt k with Some k -> Ok (Scale (v, k)) | None -> fail ())
  | "skew", [ t; s; f ] -> (
      match int_of_string_opt f with
      | Some f -> Ok (Skew { target = t; source = s; factor = f })
      | None -> fail ())
  | "align", [ s; l; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Align { stmt = s; loop = l; amount = k })
      | None -> fail ())
  | "reorder", _ -> (
      (* path:perm, e.g. 0:1,0 — children of node [0] permuted *)
      match String.index_opt spec ':' with
      | None -> fail ()
      | Some i -> (
          try
            let path =
              String.sub spec 0 i |> String.split_on_char '.'
              |> List.filter (fun s -> s <> "")
              |> List.map int_of_string
            in
            let perm =
              String.sub spec (i + 1) (String.length spec - i - 1)
              |> String.split_on_char ',' |> List.map int_of_string
            in
            Ok (Reorder { parent = path; perm })
          with Failure _ -> fail ()))
  | _ -> fail ()

let spec_of_step : step -> string * string = function
  | Interchange (a, b) -> ("interchange", a ^ "," ^ b)
  | Reverse v -> ("reverse", v)
  | Scale (v, k) -> ("scale", Printf.sprintf "%s,%d" v k)
  | Skew { target; source; factor } -> ("skew", Printf.sprintf "%s,%s,%d" target source factor)
  | Align { stmt; loop; amount } -> ("align", Printf.sprintf "%s,%s,%d" stmt loop amount)
  | Reorder { parent; perm } ->
      let ints sep l = String.concat sep (List.map string_of_int l) in
      ("reorder", ints "." parent ^ ":" ^ ints "," perm)

let step_error fmt = Diag.errorf ~code:"T301" ~phase:Diag.Legality fmt

let extend (layout : Layout.t) (acc : Mat.t) (step : step) :
    (Mat.t * Layout.t, Diag.t list) result =
  match build layout step with
  | exception (Not_found | Failure _ | Invalid_argument _) ->
      Error [ step_error "step '%a' failed against the current program shape" pp_step step ]
  | m -> (
      let acc' = Mat.mul m acc in
      match Blockstruct.infer layout m with
      | Ok st -> Ok (acc', st.Blockstruct.new_layout)
      | Error msg -> Error [ step_error "step '%a': %s" pp_step step msg ])

let compose (layout : Layout.t) (steps : step list) : (Mat.t, Diag.t list) result =
  let rec go acc layout = function
    | [] -> Ok acc
    | step :: rest -> (
        match extend layout acc step with
        | Ok (acc', layout') -> go acc' layout' rest
        | Error _ as e -> e)
  in
  go (Mat.identity (Layout.size layout)) layout steps
