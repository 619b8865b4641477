(** The ROCCC compiler driver — the library's primary public API.

    [compile] runs the end-to-end pipeline of the paper's Figure 1 on one
    kernel function; [simulate] executes the result on the cycle-accurate
    execution model (Figure 2); [verify] checks the hardware against the C
    semantics.

    The pipeline is also exposed stage by stage ({!front_end},
    {!lower_to_kernel}, {!back_end}), each stage's result an opaque pass
    state, so a caller can time the stages apart and observe per-pass
    timings through the {!instrument} hook. *)

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

type front
(** Front-end result: parse, semantic checks, LUT conversion, inlining and
    loop-level optimization. Immutable — safe to share across domains. *)

type staged_kernel
(** Storage-level result: scalar replacement + feedback annotation.
    Immutable — safe to share across domains. *)

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
  area : Roccc_fpga.Area.estimate;
      (** every number the design is judged by: Virtex-II slices, clock,
          latency, latch bits, outputs per cycle *)
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
    source file, in definition order. Raises the parser's
    {!Roccc_util.Diag.Error} on parse failure. *)

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
    the model fails — e.g. an input array it reads is missing. *)

val interpret :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  compiled ->
  Roccc_cfront.Interp.outcome
(** Run the original C source through the reference interpreter. *)

val compare_outputs :
  inputs:string list ->
  hw_arrays:(string * int64 array) list ->
  hw_scalars:(string * int64) list ->
  Roccc_cfront.Interp.outcome ->
  string list
(** Every difference between the hardware's output arrays and pointer
    outputs and the software outcome ([] when equal): an element, an
    array length, an output the software never produced, and a software
    output the hardware never wrote. A software array named in [inputs]
    is an input, which the hardware need not write. {!verify} and the
    process network's co-simulation both report through it. *)

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
