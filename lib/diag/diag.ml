type severity = Error | Warning | Info

type phase =
  | Parse
  | Layout
  | Analysis
  | Presburger
  | Legality
  | Completion
  | Codegen
  | Interp
  | Verify
  | Search
  | Serve
  | Corpus
  | Exec
  | Driver

type span = { line : int }

type t = {
  code : string;
  severity : severity;
  phase : phase;
  message : string;
  span : span option;
}

let make ?span ~code ~severity ~phase message = { code; severity; phase; message; span }
let error ?span ~code ~phase message = make ?span ~code ~severity:Error ~phase message
let warning ?span ~code ~phase message = make ?span ~code ~severity:Warning ~phase message
let info ?span ~code ~phase message = make ?span ~code ~severity:Info ~phase message

let errorf ?span ~code ~phase fmt = Format.kasprintf (error ?span ~code ~phase) fmt
let warningf ?span ~code ~phase fmt = Format.kasprintf (warning ?span ~code ~phase) fmt

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let phase_to_string = function
  | Parse -> "parse"
  | Layout -> "layout"
  | Analysis -> "analysis"
  | Presburger -> "presburger"
  | Legality -> "legality"
  | Completion -> "completion"
  | Codegen -> "codegen"
  | Interp -> "interp"
  | Verify -> "verify"
  | Search -> "search"
  | Serve -> "serve"
  | Corpus -> "corpus"
  | Exec -> "exec"
  | Driver -> "driver"

let to_string d =
  let where = match d.span with None -> "" | Some { line } -> Printf.sprintf " (line %d)" line in
  Printf.sprintf "%s[%s] %s: %s%s" (severity_to_string d.severity) d.code
    (phase_to_string d.phase) d.message where

let list_to_string ds = String.concat "\n" (List.map to_string ds)

let pp fmt d = Format.pp_print_string fmt (to_string d)

let has_errors = List.exists (fun d -> d.severity = Error)
let has_warnings = List.exists (fun d -> d.severity = Warning)

let exit_code ds = if has_errors ds then 1 else if has_warnings ds then 2 else 0

(* The wire encoding used by the serve protocol: a flat field list any
   serializer can map structurally.  The field set is part of the wire
   contract — extend it, never repurpose a key. *)
let to_fields d =
  let base =
    [
      ("code", d.code);
      ("severity", severity_to_string d.severity);
      ("phase", phase_to_string d.phase);
      ("message", d.message);
    ]
  in
  match d.span with None -> base | Some { line } -> base @ [ ("line", string_of_int line) ]
