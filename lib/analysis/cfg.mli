(** Control-flow graph library over VM procedures — the Machine-SUIF CFG
    library equivalent (paper reference [14]): successors/predecessors,
    reverse postorder, dominators (Cooper-Harvey-Kennedy) and dominance
    frontiers. *)

module Proc = Roccc_vm.Proc

type t = {
  proc : Proc.t;
  succ : (Proc.label, Proc.label list) Hashtbl.t;
  pred : (Proc.label, Proc.label list) Hashtbl.t;
  rpo : Proc.label array;  (** reverse postorder from entry *)
  rpo_index : (Proc.label, int) Hashtbl.t;
  idom : (Proc.label, Proc.label) Hashtbl.t;
}

val build : Proc.t -> t

val successors : t -> Proc.label -> Proc.label list
val predecessors : t -> Proc.label -> Proc.label list
val entry_label : t -> Proc.label

val immediate_dominator : t -> Proc.label -> Proc.label option
(** [None] for the entry block. *)

val dominates : t -> Proc.label -> Proc.label -> bool
(** Reflexive dominance. *)

val dominance_frontiers : t -> (Proc.label, Proc.label list) Hashtbl.t
