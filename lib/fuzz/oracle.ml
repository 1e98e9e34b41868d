module Ast = Inl_ir.Ast
module Diag = Inl_diag.Diag
module Watchdog = Inl_diag.Watchdog
module Omega = Inl_presburger.Omega
module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify

type signature = Crash | Divergence | Verdict_mismatch | Timeout

let signature_to_string = function
  | Crash -> "crash"
  | Divergence -> "divergence"
  | Verdict_mismatch -> "verdict-mismatch"
  | Timeout -> "timeout"

type outcome =
  | Pass of string
  | Skip of string
  | Finding of { signature : signature; detail : string }

let outcome_to_string = function
  | Pass note -> "pass: " ^ note
  | Skip note -> "skip: " ^ note
  | Finding { signature; detail } ->
      Printf.sprintf "finding %s: %s" (signature_to_string signature) detail

let sizes = [ 2; 3; 4 ]

(* Statement instances at N=4 are bounded by a few hundred for generated
   shapes; six orders of magnitude of headroom still cuts off any
   pathological generated loop long before the wall clock notices. *)
let max_steps = 100_000

let has_code code ds = List.exists (fun (d : Diag.t) -> d.Diag.code = code) ds

(* The interpreter leg: equivalence at every size, first difference wins. *)
let interp_verdict (src : Ast.program) (gen : Ast.program) : (unit, string) result =
  List.fold_left
    (fun acc n ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match Interp.equivalent ~max_steps src gen ~params:[ ("N", n) ] with
          | Ok () -> Ok ()
          | Error d -> Error (Printf.sprintf "stores differ at N=%d: %s" n d)))
    (Ok ()) sizes

let judge (prog : Ast.program) (tf : Tf.t) : outcome =
  let ctx = Inl.analyze prog in
  match Tf.materialize ctx tf with
  | Error msg ->
      (* a failed completion search or a recipe that does not fit this
         program shape is vacuous, not wrong *)
      Skip ("recipe does not materialize: " ^ msg)
  | Ok m -> (
      match Inl.check ctx m with
      | Inl.Legality.Illegal reason ->
          if Tf.expected_legal tf then
            Finding
              {
                signature = Verdict_mismatch;
                detail =
                  "completion produced a matrix the legality test rejects: " ^ reason;
              }
          else Pass "illegal (consistent: nothing to generate)"
      | Inl.Legality.Legal _ -> (
          match Inl.transform ctx m with
          | Error ds when has_code "B501" ds ->
              Skip ("code generation degraded under the resource budget: " ^ Diag.list_to_string ds)
          | Error ds ->
              Finding
                {
                  signature = Verdict_mismatch;
                  detail = "legal matrix failed code generation: " ^ Diag.list_to_string ds;
                }
          | Ok transformed -> (
              (* static translation validation of the generated program *)
              let report = Verify.run ~against:prog transformed in
              let static_errors = Diag.has_errors (Verify.diags report) in
              match (static_errors, interp_verdict prog transformed) with
              | false, Ok () -> Pass "legal, statically validated, interpreter-equivalent"
              | true, Error d ->
                  Finding
                    {
                      signature = Divergence;
                      detail =
                        Printf.sprintf
                          "legality accepted a transformation both other judges refute (%s; %s)"
                          (Diag.list_to_string (Verify.diags report))
                          d;
                    }
              | false, Error d ->
                  Finding
                    {
                      signature = Divergence;
                      detail = "interpreter refutes a legal+validated transformation: " ^ d;
                    }
              | true, Ok () ->
                  Finding
                    {
                      signature = Verdict_mismatch;
                      detail =
                        "static validator refutes an interpreter-equivalent legal \
                         transformation: "
                        ^ Diag.list_to_string (Verify.diags report);
                    })))

let guarded (f : unit -> outcome) : outcome =
  match f () with
  | outcome -> outcome
  | exception Interp.Step_limit n ->
      Skip (Printf.sprintf "interpreter execution bound exceeded (%d steps)" n)
  | exception Omega.Blowup msg ->
      (* every layer above the solver promises to degrade, not raise *)
      Finding
        { signature = Crash; detail = "solver Blowup leaked past the degradation layers: " ^ msg }
  | exception (Watchdog.Timeout _ as e) -> raise e
  | exception e ->
      Finding { signature = Crash; detail = "uncaught exception: " ^ Printexc.to_string e }

let run_case ?(timeout_ms = 0) (prog : Ast.program) (tf : Tf.t) : outcome =
  if timeout_ms <= 0 then guarded (fun () -> judge prog tf)
  else
    match Watchdog.with_timeout ~ms:timeout_ms (fun () -> guarded (fun () -> judge prog tf)) with
    | Ok outcome -> outcome
    | Error _ ->
        Finding
          {
            signature = Timeout;
            detail = Printf.sprintf "case exceeded the %d ms wall-clock watchdog" timeout_ms;
          }
