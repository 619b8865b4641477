(** Static single assignment construction — the Machine-SUIF SSA library
    equivalent (paper §4.2.1: after it, "every virtual register is assigned
    only once"). Minimal SSA via iterated dominance frontiers, then
    dominator-tree renaming; output ports are rebound to the names reaching
    the exit block. *)

val convert : Roccc_vm.Proc.t -> Cfg.t
(** Convert the procedure to SSA form in place (blocks and phis are
    mutated; output ports rebound); returns the rebuilt CFG. *)

val verify : Roccc_vm.Proc.t -> unit
(** Check the single-assignment invariant; raises {!Roccc_util.Diag.Error} if
    any register has two definitions. *)

val verify_dominance : Roccc_vm.Proc.t -> unit
(** Check that every definition dominates its uses (phi uses checked at
    the corresponding predecessor, output ports at each return block).
    Raises {!Roccc_util.Diag.Error} on violation. *)
