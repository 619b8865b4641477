(** Pretty-printer rendering the AST back to C source (used by the Figure 3
    and Figure 4 reproductions, and round-trip tested against the parser). *)

val expr_to_string : Ast.expr -> string

val func_to_string : Ast.func -> string
val program_to_string : Ast.program -> string
