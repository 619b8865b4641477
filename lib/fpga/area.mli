(** Virtex-II area/clock estimation — the stand-in for the synthesis tool in
    Table 1. Slices are derived from per-instruction LUT costs at the
    inferred signal widths, pipeline/feedback registers, smart-buffer
    storage, controllers and distributed ROMs, with an imperfect-packing
    factor. *)

(** Every number a compiled design is judged by: the area model's
    output plus the pipeline figures it reads. It is the one metrics
    record — a compile's [area], the tuner's costing, the cached
    artifact and a batch or serve result all carry it as is. *)
type estimate = {
  luts : int;
  flip_flops : int;
  rom_luts : int;  (** distributed-ROM LUTs for lookup tables *)
  slices : int;  (** full system: data path + buffers + controllers *)
  operator_slices : int;
      (** data path + registers + ROMs only — comparable to an operator IP
          core without a memory-side wrapper *)
  clock_mhz : float;  (** the pipeline's achieved clock *)
  latency : int;  (** pipeline stages *)
  latch_bits : int;  (** pipeline-register bits (after retiming when it runs) *)
  greedy_latch_bits : int;  (** latch bits before retiming *)
  outputs_per_cycle : int;
  breakdown : (string * int) list;  (** component → slices *)
}

val slices_of : luts:int -> flip_flops:int -> int
(** Slice count for a LUT/FF pair under the Virtex-II packing model (two
    4-LUTs and two FFs per slice, with a packing-inefficiency factor). *)

val estimate :
  ?luts:Roccc_hir.Lut_conv.table list ->
  ?buffers:Roccc_buffers.Smart_buffer.config list ->
  Roccc_datapath.Pipeline.t ->
  estimate
(** Full-system estimate for a pipelined data path with its lookup tables
    and smart buffers. *)

val quick_estimate : Roccc_datapath.Graph.t -> int
(** The fast compile-time estimator of the paper's reference [13]: an
    O(#instructions) slice count taken before pipelining. The bench's
    compile-time area-estimation claim uses it; the bench verifies it runs
    in well under a millisecond and tracks [estimate]. *)

val xc2v2000_slices : int
(** Slice capacity of the paper's target device. *)

type power_estimate = {
  dynamic_mw : float;
  static_mw : float;
  total_mw : float;
}

val power : ?toggle_rate:float -> estimate -> power_estimate
(** First-order Virtex-II power model (Figure 1 lists power as the third
    compile-time estimate): dynamic power scales with slices x clock x
    toggle rate (default 0.25); static covers leakage plus quiescent. *)

val describe : estimate -> string
(** Human-readable summary with the per-component breakdown. *)
