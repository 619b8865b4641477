(** Difference-constraint linear programs, solved exactly through their
    min-cost-flow dual by the network simplex method.

    [solve ~weight ~tail ~head ~lower] minimises
    [sum_v weight.(v) * x.(v)] subject to
    [x.(head.(k)) - x.(tail.(k)) >= lower.(k)] for every arc [k]. The
    constraint matrix is totally unimodular, so the optimum is integral.
    The program is invariant under adding a constant to every [x], so
    callers read values relative to a reference variable of their own.
    This is the shape of min-area retiming ({!Pipeline.retime}). *)

type result = {
  x : int array;   (** an optimal point, in the caller's variable order *)
  objective : int; (** [sum_v weight.(v) * x.(v)] at that point *)
}

val solve :
  weight:int array -> tail:int array -> head:int array -> lower:int array ->
  result
(** Variables are [0 .. Array.length weight - 1]; the weights must sum to 0
    (otherwise the program is unbounded). Deterministic: equal inputs give
    equal results. The returned point is checked against every constraint and
    its objective against the flow's (strong duality); raises
    {!Roccc_util.Diag.Error} if either fails, or if the constraints are
    infeasible. *)
