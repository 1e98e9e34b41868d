(** Execution-set extraction for arbitrary (including generated)
    programs.

    {!Inl_instance.Layout} maps {e source} programs to instance vectors
    and rejects [If]/[Let] nodes by design; the verifier instead reads
    the execution set straight off the AST.  Each statement occurrence
    yields a disjunction of conjunctive affine systems ({!ctxt}) over the
    program's own loop variables, parameters and divisibility wildcards,
    whose integer solutions are exactly the loop-variable valuations
    under which the statement executes:

    - natural bounds and guards are conjunctive constraints;
    - covering (union) bounds — combiner opposite to the natural one —
      are disjunctive and fork the context per term;
    - [Let v = e/d] is eliminated by exact rational substitution
      ({!raff}); [Gdiv] guards and strides become equalities with fresh
      existential wildcards ({!Inl_presburger.Omega.fresh_var});
    - a strided loop whose start is not one integral affine term cannot
      be encoded exactly; the context is then a superset and flagged
      [exact = false] so downstream checks degrade to "unknown" instead
      of lying.

    Extraction is purely syntactic — it never calls the solver and never
    raises.  The module also owns the three helpers every check of the
    verifier shares ({!vdiag}, {!max_modulus}, {!satisfiable}). *)

module Mpz = Inl_num.Mpz
module Linexpr = Inl_presburger.Linexpr
module Constr = Inl_presburger.Constr
module System = Inl_presburger.System
module Ast = Inl_ir.Ast
module Smap : Map.S with type key = string

type raff = { num : Linexpr.t; den : Mpz.t }
(** Rational affine form [num/den], [den >= 1]. *)

val raff_of_affine : Linexpr.t -> raff
val raff_of_var : string -> raff
val raff_normalize : raff -> raff
val raff_rename : (string -> string) -> raff -> raff

val raff_eq_constr : raff -> raff -> Constr.t
(** [a = b] with denominators cleared. *)

type ctxt = {
  sys : System.t;
  env : raff Smap.t;
  exact : bool;
}

val initial : ctxt

val subst_env : raff Smap.t -> Linexpr.t -> raff
(** Resolve [Let]-bound variables in an affine expression. *)

val lower_constr : raff Smap.t -> string -> Ast.bterm -> Constr.t
val upper_constr : raff Smap.t -> string -> Ast.bterm -> Constr.t

val bound_branches :
  raff Smap.t -> string -> which:[ `Lower | `Upper ] -> Ast.bound -> Constr.t list list
(** One constraint list per disjunct. *)

val guard_constrs : raff Smap.t -> Ast.guard -> Constr.t list

val enter_if : ctxt -> Ast.guard list -> ctxt
val enter_let : ctxt -> string -> Ast.bterm -> ctxt
val enter_loop : ctxt -> Ast.loop -> ctxt list

type occurrence = {
  path : Ast.path;
  stmt : Ast.stmt;
  loops : (Ast.path * string) list;  (** enclosing loops, outermost first *)
  ctxts : ctxt list;  (** disjuncts; their union is the execution set *)
}

val extract : Ast.program -> occurrence list
(** All statement occurrences in syntactic order. *)

val loops_of : Ast.program -> (Ast.path * Ast.loop) list
(** All loops in syntactic order, with their paths. *)

val refs_of : raff Smap.t -> Ast.stmt -> (bool * string * raff list) list
(** Array references of a statement — the write first, then reads left
    to right — with subscripts resolved through the let-environment. *)

(** {2 Shared by the checks} *)

val vdiag :
  Inl_diag.Diag.severity -> string -> ('a, Format.formatter, unit, Inl_diag.Diag.t) format4 -> 'a
(** A [Verify]-phase diagnostic with a formatted message. *)

val max_modulus : int
(** Largest divisor for which a check enumerates residue branches when
    testing a divisibility fact; beyond it the check reports [V900]. *)

val satisfiable : ?ctx:Inl_presburger.Omega.ctx -> System.t -> bool
(** Normalize, then ask the solver; an infeasible normal form is
    [false] without a solver call. *)
