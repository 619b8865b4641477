(** Back-end optimization passes over SSA-form procedures, run before
    data-path construction: copy propagation, local value numbering (CSE
    within blocks) and dead-code elimination. All three shrink the circuit
    without changing behaviour. *)

type stats = {
  copies_propagated : int;
  values_numbered : int;
  dead_removed : int;
}

val run : Roccc_vm.Proc.t -> stats
(** Iterate the three passes to a fixpoint. *)
