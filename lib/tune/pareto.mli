(** Pareto dominance over the design-space metrics the paper trades:
    clock rate (maximize) against slice area and pipeline-register bits
    (minimize). The autotuner's front extraction is built on them. *)

(** One candidate's position in objective space. *)
type metrics = {
  p_slices : int;
  p_clock_mhz : float;
  p_latch_bits : int;
}

val of_measurement : Roccc_core.Driver.measurement -> metrics

val dominates : metrics -> metrics -> bool
(** [dominates a b]: [a] is no worse than [b] on every axis and strictly
    better on at least one. Irreflexive — equal points never dominate
    each other, so duplicated metrics can coexist on a front. *)

val front : ('a * metrics) list -> ('a * metrics) list
(** The non-dominated subset, preserving input order (deterministic for
    a deterministic input order). No element of the result is
    {!dominates}-dominated by any input element. *)
