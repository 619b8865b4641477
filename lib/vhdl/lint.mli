(** Structural checks over generated VHDL designs — the static rules a VHDL
    front-end would enforce, run offline: every referenced name declared, no
    multiple drivers, component instances match generated entities and map
    every formal, output ports never read inside their own architecture. *)

type report = {
  units_checked : int;
  instances_checked : int;
  signals_checked : int;
}

val identifiers_of : string -> string list
(** Identifiers appearing in an expression text (VHDL keywords and numeric
    literals filtered out). Exposed for tests. *)

val check : Ast.design -> report
(** Lint a whole design. Raises {!Roccc_util.Diag.Error} describing the first
    violation; returns a summary on success. *)
