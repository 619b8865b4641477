(** Lookup-table support (paper §2, §4.2.4): calls "whenever feasible made
    into a lookup table"; LUT instructions instantiate either pre-existing
    library tables (cos) or ROM IPs initialized from text files. *)

type table = {
  lut_name : string;
  in_kind : Roccc_cfront.Ast.ikind;
  out_kind : Roccc_cfront.Ast.ikind;
  contents : int64 array;
  preexisting : bool;
      (** library tables (cos/sin) store a half wave and cost less area *)
}

val size : table -> int

val signature : table -> string * Roccc_cfront.Semant.lut_signature
val lookup : table -> int64 -> int64
val interp_binding : table -> string * (int64 -> int64)

val cos_table : ?name:string -> in_bits:int -> out_bits:int -> unit -> table
(** Full-period cosine, signed output scaled to [out_bits]. *)

val of_contents :
  name:string ->
  in_kind:Roccc_cfront.Ast.ikind ->
  out_kind:Roccc_cfront.Ast.ikind ->
  int64 array ->
  table

val of_init_text :
  name:string ->
  in_kind:Roccc_cfront.Ast.ikind ->
  out_kind:Roccc_cfront.Ast.ikind ->
  string ->
  table
(** Parse a text initialization file: one integer per line, '#' comments. *)

val to_init_text : table -> string

val from_function : Roccc_cfront.Ast.program -> Roccc_cfront.Ast.func -> table
(** Tabulate a pure single-scalar-argument function by exhaustive evaluation;
    raises {!Roccc_util.Diag.Error} beyond 16 input bits or for impure
    bodies. *)

val convert_calls : Roccc_cfront.Ast.program -> table list -> Roccc_cfront.Ast.program
(** Drop converted function definitions; calls resolve to the tables. *)
