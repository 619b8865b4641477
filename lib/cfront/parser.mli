(** Recursive-descent parser for the ROCCC C subset. *)

val parse_program : string -> Ast.program
(** Parse a whole translation unit: global integer/array declarations and
    function definitions. Raises a {!Roccc_util.Diag.Error} at the
    offending line and column on malformed input. *)
