(** First-class pass manager for the Figure 1 pipeline.

    Every transformation — loop-level (HIR), SUIFvm (VM) and data-path — is
    a {!pass} value carrying its name, layer, option gate, IR-size metric,
    per-pass option fingerprint, an invariant verifier and an optional
    differential semantics check. The driver's stages are the declarative
    pipelines {!front_passes}, {!kernel_passes} and {!back_passes}, executed
    by {!run}; the batch service uses {!executed} and each pass's
    [fingerprint] to build chained per-pass cache keys and {!step} to resume
    a pipeline from a cached intermediate state. *)

exception Error of string
(** All pass failures, prefixed with the failing pass's name. *)

exception Cancelled of string
(** Raised by {!step} between passes when the config's [cancel] hook
    reports a reason (cooperative cancellation — e.g. a serve request's
    deadline). Deliberately distinct from {!Error}: the compiler did not
    fail, the caller gave up. *)

val error_message : exn -> string option
(** The text of a compiler error: {!Error}'s message, or a library's
    {!Roccc_util.Diag.Error} rendered by {!Roccc_util.Diag.to_string};
    [None] for any other exception. The one renderer behind every
    command's and every job's error line. *)

(** {1 Options} *)

type options = {
  unroll_inner_max : int;
      (** fully unroll inner loops with at most this trip count *)
  unroll_all_max : int;
      (** fully unroll any constant loop with at most this trip count *)
  target_ns : float;             (** pipeline stage budget *)
  stage_budget : int;
      (** cap on the stage count of a multi-stage (wide) operator region
          (0 = the decomposition's natural depth) *)
  decomp : Roccc_datapath.Delay.decomp;
      (** wide-multiplier decomposition choice *)
  unroll_outer_factor : int;     (** partial unrolling of the outer loop *)
  lut_convert_max_bits : int;
      (** convert pure called functions with inputs up to this width into
          ROM lookup tables instead of inlining (0 = always inline) *)
  bus_elements : int;            (** memory bus width, in elements *)
  disabled_passes : string list;
      (** optional passes to skip, by name — the CLI's [--disable-pass] *)
}

val default_options : options

(** {1 Instrumentation} *)

type pass_stats = {
  pass_name : string;
  started_s : float;   (** absolute wall-clock, seconds since the epoch *)
  elapsed_s : float;
  ir_size : int;       (** size of the active IR after the pass (0 = n/a) *)
}

type instrument = pass_stats -> unit

(** {1 Pipeline state} *)

(** The state threaded through the passes; fields fill in as layers
    complete. No pass mutates a value of its input state (SSA conversion
    and the optimizer rewrite a {!Roccc_vm.Proc.copy}), so every state is
    safe to cache and share across domains. *)
type state = {
  st_source : string;
  st_entry : string;
  st_options : options;
  st_luts : Roccc_hir.Lut_conv.table list;
  st_seed_luts : Roccc_hir.Lut_conv.table list;
      (** the tables registered at compilation start *)
  st_program : Roccc_cfront.Ast.program option;
  st_func : Roccc_cfront.Ast.func option;
  st_kernel : Roccc_hir.Kernel.t option;
  st_proc : Roccc_vm.Proc.t option;
  st_dp : Roccc_datapath.Graph.t option;
  st_widths : Roccc_datapath.Widths.t option;
  st_pipeline : Roccc_datapath.Pipeline.t option;
  st_design : Roccc_vhdl.Ast.design option;
  st_buffer_configs : Roccc_buffers.Smart_buffer.config list;
  st_area : Roccc_fpga.Area.estimate option;
  st_trace : string list;  (** executed pass names, in order *)
}

val initial :
  ?luts:Roccc_hir.Lut_conv.table list ->
  options:options ->
  entry:string ->
  string ->
  state
(** Fresh pipeline state for one compilation of [source]. *)

val need : string -> 'a option -> 'a
(** [need what field]: the field's value; raises {!Error} naming [what]
    when an earlier pass has not filled it in. *)

(** {1 Pass values} *)

type layer = Cfront | Hir | Vm | Datapath | Vhdl | Fpga

val layer_name : layer -> string

type pass = {
  name : string;          (** the Figure 1 pass name *)
  layer : layer;
  optional : bool;        (** may be named in [disabled_passes] *)
  enabled : options -> bool;   (** static option gate *)
  applicable : state -> bool;  (** dynamic gate (e.g. nothing to convert) *)
  transform : state -> state;
  ir_size : state -> int;
  verifier : (state -> unit) option;      (** run under [verify_ir] *)
  differential : (state -> state -> unit) option;
      (** run under [differential] on the pass's input and output states *)
  dump : state -> string;                 (** IR printer for [dump_after] *)
  fingerprint : options -> string;
      (** canonical rendering of exactly the option fields the pass reads *)
}

val front_passes : pass list
(** parse .. loop-level optimization (stage 1 of the driver). *)

val kernel_passes : pass list
(** scalar replacement + feedback detection (stage 2). *)

val back_passes : pass list
(** SUIFvm lowering .. VHDL + area estimation (stage 3). *)

val all_passes : pass list

val pass_names : unit -> string list
(** Every distinct pass name, in pipeline order. *)

val find : string -> pass option

(** {1 Manager configuration} *)

type config = {
  verify_ir : bool;          (** run each pass's verifier after it *)
  differential : bool;       (** run the differential semantics checks *)
  dump_after : string list;        (** pass names to print IR after *)
  on_dump : string -> string -> unit;  (** receives (pass name, dump) *)
  instrument : instrument option;
  cancel : (unit -> string option) option;
      (** cooperative cancellation hook, polled at every pass boundary:
          returning [Some reason] makes {!step} raise {!Cancelled} before
          doing any further work *)
}

val default_config : unit -> config
(** [verify_ir] / [differential] default from the [ROCCC_VERIFY_IR] /
    [ROCCC_DIFFERENTIAL] environment variables; dumps go to stdout. *)

val check_names :
  ?dump_after:string list -> options -> (unit, string) result
(** [Error] names an unknown pass in [disabled_passes] or [dump_after], or
    a required pass in [disabled_passes]. *)

val validate : ?dump_after:string list -> options -> (unit, string) result
(** {!check_names}, then [Error] for a [dump_after] pass that does not run
    under [options] (disabled, or its option gate is off). *)

val executed : options -> pass list -> pass list
(** The passes that would execute under the options, in order: a pass
    runs when its option gate is open and, if it is optional,
    [disabled_passes] does not name it. The basis for the service's
    cache keys. A pass whose dynamic [applicable] gate later skips is
    listed too: {!step} then returns its input state physically ([==]),
    and the service chains no key for it, so jobs that differ only in
    what the skipped pass reads share the states after it. *)

val step : ?config:config -> pass -> state -> state
(** Run one pass (or skip it, returning the input state itself, when its
    gates say so): transform, trace, instrument, then verify / check /
    dump according to [config]. Raises {!Error} with the pass name. *)

val run : ?config:config -> pass list -> state -> state
(** {!check_names} on the state's options and [config]'s [dump_after],
    then fold {!step} over the pipeline. *)
