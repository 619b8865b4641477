(** Procedures: basic blocks of VM instructions plus explicit control flow —
    the Machine-SUIF-style container the CFG and SSA libraries operate
    on. *)

type label = int

type terminator =
  | Jump of label
  | Branch of Instr.vreg * label * label  (** if reg <> 0 then l1 else l2 *)
  | Ret

(** SSA phi: one argument per predecessor label. *)
type phi = {
  phi_dst : Instr.vreg;
  phi_args : (label * Instr.vreg) list;
  phi_kind : Instr.ikind;
}

type block = {
  label : label;
  mutable phis : phi list;
  mutable instrs : Instr.instr list;
  mutable term : terminator;
}

(** Hardware-facing port: inputs bind registers at entry; each output names
    the register whose value at [Ret] is the result. *)
type port = {
  port_name : string;
  port_reg : Instr.vreg;
  port_kind : Instr.ikind;
}

type t = {
  pname : string;
  mutable blocks : block list;  (** entry block first *)
  inputs : port list;
  mutable outputs : port list;
  reg_kinds : (Instr.vreg, Instr.ikind) Hashtbl.t;
  reg_gen : Roccc_util.Id_gen.t;
  label_gen : Roccc_util.Id_gen.t;
  feedbacks : (string * Instr.ikind * int64) list;
      (** feedback signals threaded through LPR/SNX: name, kind, initial *)
}

val create : ?feedbacks:(string * Instr.ikind * int64) list -> string -> t

val fresh_reg : t -> Instr.ikind -> Instr.vreg
val reg_kind : t -> Instr.vreg -> Instr.ikind

val fresh_block : t -> block
val find_block : t -> label -> block
val entry : t -> block

val successors : block -> label list
val all_instrs : t -> Instr.instr list

val reg_universe : t -> int
(** The smallest bound above every register mentioned anywhere in the
    procedure: the size of a register-indexed table. *)

val copy : t -> t
(** Deep copy: mutating the copy (SSA conversion, the optimizer) leaves
    the original untouched. *)

val verify_cfg : t -> unit
(** Structural well-formedness, independent of SSA form: unique block labels,
    terminator targets resolve, phi arguments come from actual predecessors
    and cover all of them, every used register has some definition
    (instruction, phi, or input port). Raises {!Roccc_util.Diag.Error}. *)

val to_string : t -> string
