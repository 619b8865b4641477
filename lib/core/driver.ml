(** The ROCCC compiler driver: the end-to-end pipeline of Figure 1.

    C source -> parse -> semantic checks -> inlining -> loop optimizations ->
    scalar replacement -> feedback annotation -> SUIFvm lowering -> SSA/CFG ->
    data-path building -> bit-width inference -> pipelining -> VHDL
    generation -> area/clock estimation.

    Every transformation is a first-class {!Pass.pass} value; the driver is
    a thin projection layer that runs the declarative pipelines
    ({!Pass.front_passes}, {!Pass.kernel_passes}, {!Pass.back_passes}) and
    converts between the {!Pass.state} threaded through them and the staged
    result records ({!front}, {!staged_kernel}, {!compiled}) that callers
    such as the batch service memoize. *)

module Ast = Roccc_cfront.Ast
module Parser = Roccc_cfront.Parser
module Interp = Roccc_cfront.Interp
module Lut_conv = Roccc_hir.Lut_conv
module Kernel = Roccc_hir.Kernel
module Proc = Roccc_vm.Proc
module Graph = Roccc_datapath.Graph
module Widths = Roccc_datapath.Widths
module Pipeline = Roccc_datapath.Pipeline
module Smart_buffer = Roccc_buffers.Smart_buffer
module Engine = Roccc_hw.Engine
module Area = Roccc_fpga.Area

exception Error = Pass.Error

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type options = Pass.options = {
  unroll_inner_max : int;
  unroll_all_max : int;
  target_ns : float;
  stage_budget : int;
  decomp : Roccc_datapath.Delay.decomp;
  unroll_outer_factor : int;
  lut_convert_max_bits : int;
  bus_elements : int;
  disabled_passes : string list;
}

let default_options = Pass.default_options

type pass_stats = Pass.pass_stats = {
  pass_name : string;
  started_s : float;
  elapsed_s : float;
  ir_size : int;
}

type instrument = pass_stats -> unit

(* ------------------------------------------------------------------ *)
(* Stage results                                                       *)
(* ------------------------------------------------------------------ *)

type front = {
  fr_source : string;
  fr_entry : string;
  fr_program : Ast.program;       (** restricted to the entry function *)
  fr_func : Ast.func;             (** after inlining and loop transforms *)
  fr_luts : Lut_conv.table list;  (** registered + converted tables *)
  fr_seed_luts : Lut_conv.table list;  (** registered before compilation *)
  fr_trace : string list;
}

type staged_kernel = {
  sk_front : front;
  sk_kernel : Kernel.t;
  sk_trace : string list;         (** cumulative (includes the front's) *)
}

type compiled = {
  source : string;
  entry : string;
  options : options;
  program : Ast.program;          (** after front-end transformations *)
  kernel : Kernel.t;
  proc : Proc.t;                  (** SSA-form VM procedure *)
  dp : Graph.t;
  widths : Widths.t;
  pipeline : Pipeline.t;
  design : Roccc_vhdl.Ast.design;
  buffer_configs : Smart_buffer.config list;
  area : Area.estimate;
  luts : Lut_conv.table list;
  system_vhdl : string option;
      (** Figure 2 system wrapper (address generator + smart buffer +
          controller around the data path) for 1-D single-window kernels *)
  pass_trace : string list;       (** executed passes, in order (Figure 1) *)
}

(* ------------------------------------------------------------------ *)
(* State projections                                                   *)
(* ------------------------------------------------------------------ *)

let need what = function
  | Some v -> v
  | None -> errf "pipeline state is missing the %s" what

let front_of_state (st : Pass.state) : front =
  let f = need "entry function" st.Pass.st_func in
  let program = need "program" st.Pass.st_program in
  { fr_source = st.Pass.st_source;
    fr_entry = st.Pass.st_entry;
    fr_program = { program with Ast.funcs = [ f ] };
    fr_func = f;
    fr_luts = st.Pass.st_luts;
    fr_seed_luts = st.Pass.st_seed_luts;
    fr_trace = st.Pass.st_trace }

let staged_of_state (st : Pass.state) : staged_kernel =
  { sk_front = front_of_state st;
    sk_kernel = need "kernel" st.Pass.st_kernel;
    sk_trace = st.Pass.st_trace }

let state_of_front ?(options = default_options) (fr : front) : Pass.state =
  { (Pass.initial ~luts:fr.fr_luts ~options ~entry:fr.fr_entry fr.fr_source) with
    Pass.st_seed_luts = fr.fr_seed_luts;
    st_program = Some fr.fr_program;
    st_func = Some fr.fr_func;
    st_trace = fr.fr_trace }

let state_of_staged ~(options : options) (sk : staged_kernel) : Pass.state =
  { (state_of_front ~options sk.sk_front) with
    Pass.st_kernel = Some sk.sk_kernel;
    st_trace = sk.sk_trace }

(* Figure 2 system wrapper from the pre-existing VHDL component library,
   for the simple 1-D single-window shape. *)
let system_vhdl_of (kernel : Kernel.t) (proc : Proc.t) (pipeline : Pipeline.t)
    : string option =
  match kernel.Kernel.windows, kernel.Kernel.loops with
  | [ w ], [ _ ] when List.for_all (fun o -> List.length o = 1) w.Kernel.win_offsets
    ->
    let win_ports = List.map snd w.Kernel.win_scalars in
    let out_ports =
      List.map
        (fun (o : Kernel.output) ->
          o.Kernel.port, o.Kernel.port_kind.Ast.bits)
        kernel.Kernel.outputs
    in
    Some
      (Roccc_vhdl.Library.system_wrapper_vhdl
         ~dp_entity:proc.Proc.pname
         ~element_bits:w.Kernel.win_kind.Ast.bits ~win_ports ~out_ports
         ~total_words:(List.fold_left ( * ) 1 w.Kernel.win_dims)
         ~iterations:(Kernel.iteration_space kernel)
         ~latency:(Pipeline.latency pipeline))
  | _ -> None

let compiled_of_state (st : Pass.state) : compiled =
  let kernel = need "kernel" st.Pass.st_kernel in
  let proc = need "vm procedure" st.Pass.st_proc in
  let pipeline = need "pipeline" st.Pass.st_pipeline in
  let f = need "entry function" st.Pass.st_func in
  let program = need "program" st.Pass.st_program in
  { source = st.Pass.st_source;
    entry = st.Pass.st_entry;
    options = st.Pass.st_options;
    program = { program with Ast.funcs = [ f ] };
    kernel;
    proc;
    dp = need "data path" st.Pass.st_dp;
    widths = need "signal widths" st.Pass.st_widths;
    pipeline;
    design = need "design" st.Pass.st_design;
    buffer_configs = st.Pass.st_buffer_configs;
    area = need "area estimate" st.Pass.st_area;
    luts = st.Pass.st_luts;
    system_vhdl = system_vhdl_of kernel proc pipeline;
    pass_trace = st.Pass.st_trace }

(* The explicit [?instrument] argument (the historical hook) overrides the
   one carried by [?config]. *)
let resolve_config ?instrument ?config () : Pass.config =
  let c =
    match config with Some c -> c | None -> Pass.default_config ()
  in
  match instrument with
  | Some _ -> { c with Pass.instrument }
  | None -> c

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

let front_end ?instrument ?config ?(options = default_options) ?(luts = [])
    ~(entry : string) (source : string) : front =
  let config = resolve_config ?instrument ?config () in
  let st = Pass.initial ~luts ~options ~entry source in
  front_of_state (Pass.run ~config Pass.front_passes st)

let lower_to_kernel ?instrument ?config (fr : front) : staged_kernel =
  let config = resolve_config ?instrument ?config () in
  let st = state_of_front fr in
  staged_of_state (Pass.run ~config Pass.kernel_passes st)

let back_end ?instrument ?config ?(options = default_options)
    (sk : staged_kernel) : compiled =
  let config = resolve_config ?instrument ?config () in
  let st = state_of_staged ~options sk in
  compiled_of_state (Pass.run ~config Pass.back_passes st)

(* ------------------------------------------------------------------ *)
(* Design metrics (the autotuner's costing)                            *)
(* ------------------------------------------------------------------ *)

type measurement = {
  ms_slices : int;
  ms_operator_slices : int;
  ms_clock_mhz : float;
  ms_latency : int;
  ms_latch_bits : int;
  ms_greedy_latch_bits : int;
  ms_outputs_per_cycle : int;
}

let measurement_of_state (st : Pass.state) : measurement =
  let area = need "area estimate" st.Pass.st_area in
  let pipeline = need "pipeline" st.Pass.st_pipeline in
  { ms_slices = area.Area.slices;
    ms_operator_slices = area.Area.operator_slices;
    ms_clock_mhz = area.Area.clock_mhz;
    ms_latency = Pipeline.latency pipeline;
    ms_latch_bits = pipeline.Pipeline.latch_bits;
    ms_greedy_latch_bits = pipeline.Pipeline.greedy_latch_bits;
    ms_outputs_per_cycle = Pipeline.outputs_per_cycle pipeline }

(** Compile one kernel function from C source to VHDL + estimates. *)
let compile ?instrument ?config ?(options = default_options) ?(luts = [])
    ~(entry : string) (source : string) : compiled =
  let fr = front_end ?instrument ?config ~options ~luts ~entry source in
  let sk = lower_to_kernel ?instrument ?config fr in
  back_end ?instrument ?config ~options sk

(** The kernel-eligible functions of a source file (array or pointer
    parameters), in definition order. *)
let eligible_entries (source : string) : string list =
  let program =
    try Parser.parse_program source
    with Parser.Error (msg, line, col) ->
      errf "parse error at %d:%d: %s" line col msg
  in
  let eligible (f : Ast.func) =
    List.exists
      (fun p ->
        match p.Ast.ptype with
        | Ast.Tarray _ | Ast.Tptr _ -> true
        | Ast.Tint _ | Ast.Tvoid -> false)
      f.Ast.params
  in
  List.filter_map
    (fun (f : Ast.func) -> if eligible f then Some f.Ast.fname else None)
    program.Ast.funcs

(** Compile every hardware-eligible function in a source file (those with
    array or pointer parameters — the kernels); returns successes and
    per-function failures. *)
let compile_all ?config ?(options = default_options) ?(luts = [])
    (source : string) : (string * compiled) list * (string * string) list =
  let entries = eligible_entries source in
  List.fold_left
    (fun (oks, errs) entry ->
      match compile ?config ~options ~luts ~entry source with
      | c -> oks @ [ entry, c ], errs
      | exception Error msg -> oks, errs @ [ entry, msg ])
    ([], []) entries

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(** Run the compiled circuit on the cycle-accurate execution model. *)
let simulate ?(scalars = []) ?(arrays = []) (c : compiled) : Engine.result =
  let lut_bindings = List.map Lut_conv.interp_binding c.luts in
  try
    Engine.simulate ~luts:lut_bindings ~scalars ~arrays
      ~bus_elements:c.options.bus_elements c.kernel ~dp:c.dp
      ~pipeline:c.pipeline
  with
  | Roccc_vm.Instr.Vm_error msg -> errf "simulation of %s: %s" c.entry msg
  | Engine.Error msg -> errf "simulation of %s: %s" c.entry msg

(** Run the original C through the reference interpreter (same inputs). *)
let interpret ?(scalars = []) ?(arrays = []) (c : compiled) : Interp.outcome =
  let lut_sigs = List.map Lut_conv.signature c.luts in
  let lut_funcs = List.map Lut_conv.interp_binding c.luts in
  try
    Interp.run_source ~luts:lut_sigs ~lut_funcs ~scalars ~arrays c.source
      c.entry
  with Interp.Error msg -> errf "interpretation of %s: %s" c.entry msg

(** Co-simulation check: hardware simulation equals software semantics on
    the given inputs. Returns the diff report ([] when equivalent). *)
let verify ?(scalars = []) ?(arrays = []) (c : compiled) : string list =
  let hw = simulate ~scalars ~arrays c in
  let sw = interpret ~scalars ~arrays c in
  (* newest first, reversed once at the end *)
  let diffs = ref [] in
  let diff fmt = Printf.ksprintf (fun d -> diffs := d :: !diffs) fmt in
  (* array outputs *)
  List.iter
    (fun (name, hw_data) ->
      match List.assoc_opt name sw.Interp.arrays with
      | Some sw_data ->
        Array.iteri
          (fun i v ->
            if not (Int64.equal v sw_data.(i)) then
              diff "%s[%d]: hw=%Ld sw=%Ld" name i v sw_data.(i))
          hw_data
      | None -> diff "missing sw array %s" name)
    hw.Engine.output_arrays;
  (* scalar outputs *)
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name sw.Interp.pointer_outputs with
      | Some sv when Int64.equal v sv -> ()
      | Some sv -> diff "%s: hw=%Ld sw=%Ld" name v sv
      | None -> diff "missing sw scalar %s" name)
    hw.Engine.scalar_outputs;
  (* software-side outputs the hardware never produced: a non-input array
     written by the C code, or a pointer output, must appear on the
     hardware side too *)
  let input_names = List.map fst arrays in
  List.iter
    (fun (name, _) ->
      if
        (not (List.mem_assoc name hw.Engine.output_arrays))
        && not (List.mem name input_names)
      then diff "hw never wrote array %s" name)
    sw.Interp.arrays;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name hw.Engine.scalar_outputs) then
        diff "hw never wrote scalar %s" name)
    sw.Interp.pointer_outputs;
  List.rev !diffs

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report (c : compiled) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "=== %s ===\n" c.entry);
  Buffer.add_string buf (Kernel.describe c.kernel);
  Buffer.add_string buf
    (Printf.sprintf "datapath: %d nodes, %d instrs (%d copies)\n"
       (List.length c.dp.Graph.nodes)
       (Graph.instr_count c.dp) (Graph.copy_count c.dp));
  Buffer.add_string buf (Pipeline.describe c.pipeline);
  Buffer.add_string buf (Area.describe c.area);
  let pw = Area.power c.area in
  Buffer.add_string buf
    (Printf.sprintf "power: %.0f mW total (%.0f dynamic + %.0f static)\n"
       pw.Area.total_mw pw.Area.dynamic_mw pw.Area.static_mw);
  Buffer.contents buf

let pass_pipeline_figure (c : compiled) : string =
  "ROCCC pass pipeline (Figure 1):\n  "
  ^ String.concat "\n  -> " c.pass_trace
