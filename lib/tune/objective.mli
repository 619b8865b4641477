(** Tuning objectives: what [roccc tune] optimizes and under which
    constraint a design point counts as feasible, both read off the
    design's metrics record ({!Roccc_fpga.Area.estimate}). *)

type t =
  | Max_mhz of { slice_budget : int }
      (** fastest clock among designs fitting the slice budget *)
  | Min_slices of { target_mhz : float }
      (** smallest design meeting the clock target ([0.] = any clock) *)
  | Min_latch_bits
      (** fewest pipeline-register bits (the paper's §4.2.5 metric) *)

val parse :
  name:string ->
  slice_budget:int option ->
  target_mhz:float option ->
  (t, string) result
(** [name] is one of ["max-mhz"], ["min-slices"], ["min-latch-bits"].
    [slice_budget] applies only to [max-mhz] (default: the whole
    XC2V2000, {!Roccc_fpga.Area.xc2v2000_slices}); [target_mhz] only to
    [min-slices] (default [0.], unconstrained). A constraint flag given
    to the wrong objective is an error, not silently ignored. *)

val name : t -> string
val describe : t -> string
(** e.g. ["max-mhz (slices <= 4000)"]. *)

val feasible : t -> Roccc_fpga.Area.estimate -> bool
(** Whether a design's metrics meet the objective's constraint. *)

val fitness : t -> Roccc_fpga.Area.estimate -> float
(** Scalar score, higher is better; used only to order the front for
    display, never to prune. *)
