(** Recursive-descent parser for the ROCCC C subset. *)

val parse_program : string -> Ast.program
(** Parse a whole translation unit: global integer/array declarations and
    function definitions. Raises a {!Roccc_util.Diag.Error} at the
    offending line and column on malformed input. *)

val parse_func : string -> Ast.func
(** Parse a source string containing (at least) one function and return the
    first one; raises {!Roccc_util.Diag.Error} when none is present. *)
