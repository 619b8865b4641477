(** The SUIFvm-like instruction set (paper §4.2.1): three-address
    instructions over virtual registers, extended with the ROCCC-specific
    opcodes LPR (load previous), SNX (store next), LUT (table lookup) and
    MUX (hardware select materializing SSA phis). *)

type vreg = int

type ikind = Roccc_cfront.Ast.ikind

type opcode =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | Band | Bor | Bxor
  | Bnot | Neg
  | Slt | Sle | Sgt | Sge | Seq | Sne
  | Land | Lor | Lnot
  | Mov  (** register copy *)
  | Ldc of int64  (** load constant *)
  | Cvt  (** width/signedness conversion *)
  | Mux  (** srcs = [sel; a; b]: dst = sel ? a : b *)
  | Lpr of string  (** load the previous iteration's feedback value *)
  | Snx of string  (** store this iteration's feedback value *)
  | Lut of string  (** lookup-table read *)

type instr = {
  op : opcode;
  dst : vreg option;  (** [None] only for Snx *)
  srcs : vreg list;
  kind : ikind;  (** result kind (stored kind for Snx) *)
}

val arity : opcode -> int
val is_commutative : opcode -> bool
val opcode_name : opcode -> string
val to_string : instr -> string

val make : ?dst:vreg -> opcode -> vreg list -> ikind -> instr
(** Checked constructor: raises [Invalid_argument] on arity or destination
    mismatches. *)

val eval_op :
  lut:(string -> int64 -> int64) ->
  lpr:(string -> int64) ->
  opcode ->
  int64 list ->
  int64
(** Evaluate an opcode over fetched operand values (the caller truncates the
    result to [kind]). Snx is handled by the evaluators, not here. Raises
    {!Roccc_util.Diag.Error} on division/modulo by zero or an arity mismatch. *)
