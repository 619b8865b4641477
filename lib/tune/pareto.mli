(** Pareto dominance over the design-space metrics the paper trades:
    clock rate (maximize) against slice area and pipeline-register bits
    (minimize), read straight off a design's metrics record
    ({!Roccc_fpga.Area.estimate}, the record a compile, the tuner's
    costing and a cached result all carry). The autotuner's front
    extraction is built on them. *)

val dominates :
  Roccc_fpga.Area.estimate -> Roccc_fpga.Area.estimate -> bool
(** [dominates a b]: [a] is no worse than [b] on every axis and strictly
    better on at least one. Irreflexive — equal points never dominate
    each other, so duplicated metrics can coexist on a front. *)

val front :
  ('a * Roccc_fpga.Area.estimate) list ->
  ('a * Roccc_fpga.Area.estimate) list
(** The non-dominated subset, preserving input order (deterministic for
    a deterministic input order). No element of the result is
    {!dominates}-dominated by any input element. *)
