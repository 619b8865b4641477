(** Pareto dominance over the design-space metrics the paper trades:
    clock rate (maximize) against slice area and pipeline-register bits
    (minimize), read straight off a {!Roccc_core.Driver.measurement}. The
    autotuner's front extraction is built on them. *)

val dominates :
  Roccc_core.Driver.measurement -> Roccc_core.Driver.measurement -> bool
(** [dominates a b]: [a] is no worse than [b] on every axis and strictly
    better on at least one. Irreflexive — equal points never dominate
    each other, so duplicated metrics can coexist on a front. *)

val front :
  ('a * Roccc_core.Driver.measurement) list ->
  ('a * Roccc_core.Driver.measurement) list
(** The non-dominated subset, preserving input order (deterministic for
    a deterministic input order). No element of the result is
    {!dominates}-dominated by any input element. *)
