(** Compiler diagnostics: the one error every layer raises when it rejects
    its input, from the lexer to the cycle engine.

    [where] names the module or check that rejected the input (e.g.
    ["scalar replacement"]); [pos] is the source line and column, known
    today to the lexer and the parser only. The pass manager turns an
    escaping diagnostic into its string boundary, [Pass.Error], prefixed
    with the failing pass's name. *)

type t = { where : string; pos : (int * int) option; msg : string }

exception Error of t

val failf : ?pos:int * int -> string -> ('a, unit, string, 'b) format4 -> 'a
(** [failf ?pos where fmt ...] raises {!Error} with the formatted
    message. *)

val to_string : t -> string
(** [where: msg], or with a position [where at LINE:COL: msg] — e.g.
    ["parse error at 1:82: expected an expression but found ';'"]. *)
