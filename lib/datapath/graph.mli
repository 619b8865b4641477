(** The data-path graph (paper §4.2.2): a leveled DAG of nodes. Soft nodes
    come from CFG nodes ("the soft nodes, by themselves, will have the same
    behavior on a CPU"); mux and pipe nodes are hard nodes that "only appear
    in hardware and have no equivalence in software". *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

type kind =
  | Soft of Proc.label  (** data path of one CFG node *)
  | Mux_node of Proc.label
      (** hard node merging alternative branches in front of their common
          successor (node 7 in Figure 6) *)
  | Pipe_node
      (** hard node copying live variables around a branch region (node 6
          in Figure 6) *)
  | Entry_node  (** input operands copied at the entry of the data flow *)
  | Exit_node  (** output operands copied at the exit *)

type node = {
  id : int;
  node_kind : kind;
  mutable instrs : Instr.instr list;  (** in dependency order *)
  level : int;  (** stage index, 0 = entry *)
}

type t = {
  proc : Proc.t;
  nodes : node list;  (** ascending by level *)
  levels : node list array;
  input_ports : Proc.port list;
  output_ports : Proc.port list;
}

val kind_name : kind -> string
val is_hard : node -> bool

val node_defs : node -> Instr.vreg list
val node_inputs : node -> Instr.vreg list

val constant_values : t -> (Instr.vreg, int64) Hashtbl.t
(** Registers carrying compile-time constants (Ldc, propagated through
    Mov/Cvt) — shared by the area and delay models. *)

val instr_count : t -> int
val copy_count : t -> int

val flatten : t -> (int * Instr.instr) list
(** Every instruction tagged with its owning node id, in (level, node,
    program) order — topological by construction; the canonical
    instruction order shared by the timing and pipelining layers. *)

val to_string : t -> string
(** Level-by-level dump (the Figure 6/7 reproductions). *)

val to_dot : t -> string

exception Ill_formed of string

val verify : t -> unit
(** Structural well-formedness: unique node ids, consistent level index,
    single assignment, forward dataflow (operands defined at earlier
    levels or earlier in the same node; acyclic modulo LPR/SNX feedback).
    Raises {!Ill_formed}. *)
