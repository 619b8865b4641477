(** Semantic analysis: symbol resolution, the ROCCC C-subset restrictions
    (no recursion, statically analyzable pointers, literal array dims), and
    expression typing used by the VM lowering. *)

exception Error of string

(** Signature of a lookup-table function: input kind, output kind. *)
type lut_signature = { lut_in : Ast.ikind; lut_out : Ast.ikind }

type env = {
  vars : (string, Ast.ctype) Hashtbl.t;
  functions : (string, Ast.func) Hashtbl.t;
  luts : (string, lut_signature) Hashtbl.t;
}

val join_kinds : Ast.ikind -> Ast.ikind -> Ast.ikind
(** Usual arithmetic conversion (promotion to at least 32 bits). *)

val type_of_expr : env -> Ast.expr -> Ast.ikind
(** Raises {!Error} on ill-typed expressions. *)

val check_program :
  ?luts:(string * lut_signature) list -> Ast.program -> env
(** Check a whole program (recursion, pointer discipline, arities, array
    dimensionalities); returns the environment of the globals. Each
    function body is checked in a scope of its own: the globals, its
    parameters and its locals. *)
