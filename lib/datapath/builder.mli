(** Data-path construction (paper §4.2.2, Figures 5 and 6): parses the
    SSA-form procedure into a structured region tree, lays soft nodes out in
    levels, inserts hard mux nodes (merging alternative branches in front of
    their common successor) and hard pipe nodes (carrying live variables
    around branch regions), and adds register copies so that every value's
    definition and use sit in adjoining levels. *)

val build : Roccc_vm.Proc.t -> Graph.t
(** Build the data path of an SSA-form procedure (convert with
    {!Roccc_analysis.Ssa.convert} first). The graph's [proc] is a copy
    holding the inserted copy registers; the argument is not mutated.
    Raises {!Roccc_util.Diag.Error} on unstructured control flow. *)

val verify_adjoining : Graph.t -> unit
(** Check the def-use adjoining invariant: every register consumed at level
    k is produced at level k-1 or within the same node (external inputs
    feed level 0 only). Raises {!Roccc_util.Diag.Error} on violation. *)
