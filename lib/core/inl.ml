(** Transformations for imperfectly nested loops — the public API.

    This library implements Kodukula & Pingali's framework (SC 1996): a
    program's dynamic statement instances are mapped to {e instance
    vectors} ({!Inl_instance.Layout}), dependences between them are
    computed exactly and abstracted as interval vectors
    ({!Inl_depend.Analysis}), and loop transformations — permutation,
    reversal, skewing, scaling, statement alignment and reordering,
    distribution and jamming — are integer matrices acting on instance
    vectors ({!Tmat}), closed under composition.  {!Legality} implements
    Definition 6, {!Completion} the Section 6 completion procedure, and
    {!Codegen}/{!Simplify} regenerate runnable loop nests (Section 5).

    Quick start:
    {[
      let ctx = Inl.analyze_source "params N\ndo I = 1..N ... enddo" in
      let m = Inl.Tmat.interchange ctx.layout "I" "J" in
      match Inl.check ctx m with
      | Inl.Legality.Legal _ -> let p = Inl.transform_exn ctx m in ...
      | Inl.Legality.Illegal reason -> ...
    ]} *)

module Tmat = Tmat
module Blockstruct = Blockstruct
module Legality = Legality
module Perstmt = Perstmt
module Complete = Complete
module Completion = Completion
module Completion_ext = Completion_ext
module Pipeline = Pipeline
module Boundsgen = Boundsgen
module Codegen = Codegen
module Simplify = Simplify

module Ast = Inl_ir.Ast
module Parser = Inl_ir.Parser
module Pp = Inl_ir.Pp
module Layout = Inl_instance.Layout
module Dep = Inl_depend.Dep
module Analysis = Inl_depend.Analysis
module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Diag = Inl_diag.Diag
module Budget = Inl_diag.Budget
module Faults = Inl_diag.Faults
module Stats = Inl_diag.Stats
module Omega = Inl_presburger.Omega
module Cache = Inl_presburger.Cache
module Pool = Inl_parallel.Pool

type context = {
  program : Ast.program;
  layout : Layout.t;
  deps : Dep.t list;
  diags : Diag.t list;
      (** analysis warnings — one [A201] per approximate (budget-degraded)
          dependence; empty when the analysis was exact *)
}

let degraded (ctx : context) = List.exists (fun (d : Dep.t) -> d.Dep.approximate) ctx.deps

(** Parse, lay out and analyze a program.  Never raises on analysis
    budget exhaustion — degraded levels surface as approximate
    dependences plus warnings in [diags]. *)
let analyze ?padding (program : Ast.program) : context =
  Stats.timed "analysis" (fun () ->
      let layout = Layout.of_program ?padding program in
      let deps, diags = Analysis.dependences_diag layout in
      { program; layout; deps; diags })

let analyze_source ?padding (src : string) : context = analyze ?padding (Parser.parse_exn src)

(** Parse only, result-typed: a syntax error is a [P101] diagnostic.  No
    layout is built, so any parseable program is accepted — in
    particular generated code, whose guards and lets the instance-vector
    layout rejects by design. *)
let parse (src : string) : (Ast.program, Diag.t list) result =
  match Parser.parse src with
  | Ok prog -> Ok prog
  | Error msg -> Error [ Diag.error ~code:"P101" ~phase:Diag.Parse msg ]

(** Result-typed front door: parse and layout failures come back as error
    diagnostics instead of exceptions. *)
let analyze_source_result ?padding (src : string) : (context, Diag.t list) result =
  match parse src with
  | Error _ as e -> e
  | Ok prog -> (
      match analyze ?padding prog with
      | ctx -> Ok ctx
      | exception Invalid_argument msg -> Error [ Diag.error ~code:"Y102" ~phase:Diag.Layout msg ])

let check (ctx : context) (m : Mat.t) : Legality.verdict =
  Stats.timed "legality" (fun () -> Legality.check ctx.layout m ctx.deps)

(** Generate the transformed program for a legal matrix; [simplify]
    (default true) applies the cleanup pass of Section 5.5.  Errors are
    typed diagnostics: [L302] illegal transformation, [G501] code
    generation failure, [B501] presburger blowup during bound
    generation. *)
let transform (ctx : context) ?(simplify = true) (m : Mat.t) : (Ast.program, Diag.t list) result
    =
  match check ctx m with
  | Legality.Illegal msg ->
      Error [ Diag.error ~code:"L302" ~phase:Diag.Legality ("illegal transformation: " ^ msg) ]
  | Legality.Legal { structure; unsatisfied } -> (
      match
        Stats.timed "codegen" (fun () ->
            let prog = Codegen.generate structure ~unsatisfied in
            if simplify then Simplify.simplify prog else prog)
      with
      | prog -> Ok prog
      | exception Codegen.Codegen_error msg ->
          Error [ Diag.error ~code:"G501" ~phase:Diag.Codegen msg ]
      | exception Inl_presburger.Omega.Blowup msg ->
          Error
            [
              Diag.error ~code:"B501" ~phase:Diag.Presburger
                ("resource budget exhausted during code generation: " ^ msg);
            ])

let transform_exn ctx ?simplify m =
  match transform ctx ?simplify m with Ok p -> p | Error ds -> failwith (Diag.list_to_string ds)

(** The completion procedure (Section 6): extend the given first rows to
    a full legal transformation. *)
let complete ?options (ctx : context) ~(partial : Vec.t list) : Mat.t option =
  Stats.timed "completion" (fun () -> Completion.complete ?options ctx.layout ctx.deps ~partial)

(** Result-typed completion: search failures and internal errors come
    back as diagnostics ([C401] no completion, [C402] internal). *)
let complete_result ?options (ctx : context) ~(partial : Vec.t list) :
    (Mat.t, Diag.t list) result =
  match complete ?options ctx ~partial with
  | Some m -> Ok m
  | None ->
      Error
        [
          Diag.error ~code:"C401" ~phase:Diag.Completion
            "no legal completion found (search space exhausted or budget ran out)";
        ]
  | exception (Failure msg | Invalid_argument msg) ->
      Error [ Diag.error ~code:"C402" ~phase:Diag.Completion msg ]

(** Compose a pipeline of named transformation steps (each phrased
    against the program shape current at that step) into one matrix. *)
let pipeline (ctx : context) (steps : Pipeline.step list) : (Mat.t, Diag.t list) result =
  Pipeline.compose ctx.layout steps
