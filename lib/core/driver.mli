(** The ROCCC compiler driver — the library's primary public API.

    [compile] runs the end-to-end pipeline of the paper's Figure 1 on one
    kernel function; [simulate] executes the result on the cycle-accurate
    execution model (Figure 2); [verify] checks the hardware against the C
    semantics.

    The pipeline is also exposed stage by stage ({!front_end},
    {!lower_to_kernel}, {!back_end}) so callers such as the batch
    compilation service can memoize stage outputs content-addressed on
    (source, entry, options) and observe per-pass timings through the
    {!instrument} hook. *)

exception Error of string
(** Equal to {!Pass.Error}: every failure carries the failing pass's name. *)

(** Compilation options. Start from {!default_options} and override.
    Equal to {!Pass.options}. *)
type options = Pass.options = {
  unroll_inner_max : int;
      (** fully unroll inner loops with at most this trip count (for
          bit-step algorithms like division and square root); 0 = off *)
  unroll_all_max : int;
      (** fully unroll any constant loop with at most this trip count,
          turning small kernels into block data paths; 0 = off *)
  target_ns : float;  (** combinational budget per pipeline stage *)
  stage_budget : int;
      (** cap on the stage count of a multi-stage (wide) operator region
          (0 = the decomposition's natural depth) *)
  decomp : Roccc_datapath.Delay.decomp;
      (** wide-multiplier decomposition choice *)
  unroll_outer_factor : int;
      (** partial unrolling of the streaming loop: the data path consumes
          [factor] windows and produces [factor] results per cycle *)
  lut_convert_max_bits : int;
      (** convert pure called functions with one scalar input of at most
          this width into ROM lookup tables instead of inlining; 0 = off *)
  bus_elements : int;  (** memory elements delivered per access *)
  disabled_passes : string list;
      (** optional passes to skip, by name: e.g. [loop-fusion],
          [vm-optimize] (back-end value numbering / copy propagation /
          dead-code elimination), [bit-width-inference] (§4.2.4; the
          declared C widths are kept), [retiming], [vhdl-lint] *)
}

val default_options : options

(** {1 Pass instrumentation} *)

(** One executed pass, as reported to the {!instrument} hook.
    Equal to {!Pass.pass_stats}. *)
type pass_stats = Pass.pass_stats = {
  pass_name : string;  (** the Figure 1 pass name, e.g. ["datapath-build"] *)
  started_s : float;  (** absolute wall-clock start, seconds since epoch *)
  elapsed_s : float;  (** wall-clock duration in seconds *)
  ir_size : int;
      (** a size counter for the IR the pass produced (statements,
          instructions, datapath nodes, pipeline stages...); 0 = n/a *)
}

type instrument = pass_stats -> unit
(** Called once per executed pass, in execution order, on the thread
    running the compilation. *)

(** {1 Staged pipeline} *)

(** Front-end result: parse, semantic checks, LUT conversion, inlining and
    loop-level optimization. Immutable — safe to share across domains. *)
type front = {
  fr_source : string;
  fr_entry : string;
  fr_program : Roccc_cfront.Ast.program;  (** restricted to the entry *)
  fr_func : Roccc_cfront.Ast.func;
  fr_luts : Roccc_hir.Lut_conv.table list;  (** registered + converted *)
  fr_seed_luts : Roccc_hir.Lut_conv.table list;
      (** the tables registered before compilation began *)
  fr_trace : string list;
}

(** Storage-level result: scalar replacement + feedback annotation.
    Immutable — safe to share across domains. *)
type staged_kernel = {
  sk_front : front;
  sk_kernel : Roccc_hir.Kernel.t;
  sk_trace : string list;
}

(** Everything the compiler produces for one kernel. *)
type compiled = {
  source : string;
  entry : string;
  options : options;
  program : Roccc_cfront.Ast.program;  (** after front-end transformation *)
  kernel : Roccc_hir.Kernel.t;  (** scalar-replaced kernel (Figure 3/4) *)
  proc : Roccc_vm.Proc.t;  (** SSA-form virtual-machine procedure *)
  dp : Roccc_datapath.Graph.t;  (** the data path (Figures 6/7) *)
  widths : Roccc_datapath.Widths.t;  (** inferred signal widths *)
  pipeline : Roccc_datapath.Pipeline.t;  (** latch placement + clock *)
  design : Roccc_vhdl.Ast.design;  (** generated VHDL *)
  buffer_configs : Roccc_buffers.Smart_buffer.config list;
  area : Roccc_fpga.Area.estimate;  (** Virtex-II slices + clock *)
  luts : Roccc_hir.Lut_conv.table list;  (** registered lookup tables *)
  system_vhdl : string option;
      (** Figure 2 system wrapper (address generator + smart buffer +
          controller), available for 1-D single-window kernels *)
  pass_trace : string list;  (** executed passes, in order (Figure 1) *)
}

val front_end :
  ?instrument:instrument ->
  ?config:Pass.config ->
  ?options:options ->
  ?luts:Roccc_hir.Lut_conv.table list ->
  entry:string ->
  string ->
  front
(** Parse and optimize down to the loop level. Reads only
    [disabled_passes] and the option fields the front passes'
    [fingerprint]s render. Raises {!Error}. *)

val lower_to_kernel :
  ?instrument:instrument -> ?config:Pass.config -> front -> staged_kernel
(** Scalar replacement and feedback detection (reads no options).
    Raises {!Error}. *)

val back_end :
  ?instrument:instrument ->
  ?config:Pass.config ->
  ?options:options ->
  staged_kernel ->
  compiled
(** SUIFvm lowering, SSA, data-path construction, pipelining, VHDL
    generation and estimation. Raises {!Error}. *)

(** {1 Design metrics} *)

(** The design metrics the autotuner costs a candidate by. Neither
    [vhdl-generation] nor [vhdl-lint] feeds the area model, so a state
    that ran every other back-end pass gives the numbers a full compile
    reports. *)
type measurement = {
  ms_slices : int;
  ms_operator_slices : int;
  ms_clock_mhz : float;
  ms_latency : int;  (** pipeline stages *)
  ms_latch_bits : int;  (** after retiming (when the pass runs) *)
  ms_greedy_latch_bits : int;
  ms_outputs_per_cycle : int;
}

val measurement_of_state : Pass.state -> measurement
(** The metrics of a state that has run [area-estimation]. Raises {!Error}
    on missing fields. *)

val compile :
  ?instrument:instrument ->
  ?config:Pass.config ->
  ?options:options ->
  ?luts:Roccc_hir.Lut_conv.table list ->
  entry:string ->
  string ->
  compiled
(** [compile ~entry source] compiles the function [entry] of the C [source]
    ({!front_end} |> {!lower_to_kernel} |> {!back_end}). [luts] registers
    pre-existing lookup tables (e.g. {!Roccc_hir.Lut_conv.cos_table})
    callable by name from the C code. Raises {!Error} with a user-facing
    message on any front-end or back-end failure. *)

val eligible_entries : string -> string list
(** The kernel-eligible functions (array or pointer parameters) of a C
    source file, in definition order. Raises {!Error} on parse failure. *)

val compile_all :
  ?config:Pass.config ->
  ?options:options ->
  ?luts:Roccc_hir.Lut_conv.table list ->
  string ->
  (string * compiled) list * (string * string) list
(** Compile every hardware-eligible function (array/pointer parameters) in
    a source file: (name, compiled) successes and (name, error) failures. *)

(** {1 Pipeline-state conversion}

    Used by callers that drive the {!Pass} pipelines directly (the batch
    service resumes compilation from per-pass cached states). *)

val compiled_of_state : Pass.state -> compiled
(** Project a state that has completed {!Pass.back_passes}. Raises
    {!Error} on missing fields. *)

val simulate :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  compiled ->
  Roccc_hw.Engine.result
(** Run the compiled circuit on the cycle-accurate execution model.
    [arrays] supplies input array contents by parameter name; [scalars] the
    live-in scalar parameters. Raises {!Error} (not a bare [Failure]) when
    the model traps — e.g. a division by zero in the data path. *)

val interpret :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  compiled ->
  Roccc_cfront.Interp.outcome
(** Run the original C source through the reference interpreter. *)

val verify :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  compiled ->
  string list
(** Co-simulation check: simulate and interpret on the same inputs and
    report every output mismatch ([] means the hardware behaviour equals
    the software behaviour, the paper's §4.2.2 soft-node property). *)

val report : compiled -> string
(** Human-readable summary: kernel, data path, pipeline, area. *)

val pass_pipeline_figure : compiled -> string
(** The executed pass pipeline, matching the paper's Figure 1. *)
