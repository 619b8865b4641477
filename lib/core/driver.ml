(** The ROCCC compiler driver: the end-to-end pipeline of Figure 1.

    C source -> parse -> semantic checks -> inlining -> loop optimizations ->
    scalar replacement -> feedback annotation -> SUIFvm lowering -> SSA/CFG ->
    data-path building -> bit-width inference -> pipelining -> VHDL
    generation -> area/clock estimation.

    Every transformation is a first-class {!Pass.pass} value; the driver is
    a thin projection layer that runs the declarative pipelines
    ({!Pass.front_passes}, {!Pass.kernel_passes}, {!Pass.back_passes}) and
    projects the final {!Pass.state} threaded through them onto the
    {!compiled} record. *)

module Ast = Roccc_cfront.Ast
module Parser = Roccc_cfront.Parser
module Diag = Roccc_util.Diag
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

type front = Pass.state
type staged_kernel = Pass.state

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
  let kernel = Pass.need "kernel" st.Pass.st_kernel in
  let proc = Pass.need "vm procedure" st.Pass.st_proc in
  let pipeline = Pass.need "pipeline" st.Pass.st_pipeline in
  let f = Pass.need "entry function" st.Pass.st_func in
  let program = Pass.need "program" st.Pass.st_program in
  { source = st.Pass.st_source;
    entry = st.Pass.st_entry;
    options = st.Pass.st_options;
    program = { program with Ast.funcs = [ f ] };
    kernel;
    proc;
    dp = Pass.need "data path" st.Pass.st_dp;
    widths = Pass.need "signal widths" st.Pass.st_widths;
    pipeline;
    design = Pass.need "design" st.Pass.st_design;
    buffer_configs = st.Pass.st_buffer_configs;
    area = Pass.need "area estimate" st.Pass.st_area;
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
  Pass.run ~config Pass.front_passes st

let lower_to_kernel ?instrument ?config (fr : front) : staged_kernel =
  let config = resolve_config ?instrument ?config () in
  Pass.run ~config Pass.kernel_passes fr

let back_end ?instrument ?config ?(options = default_options)
    (sk : staged_kernel) : compiled =
  let config = resolve_config ?instrument ?config () in
  compiled_of_state
    (Pass.run ~config Pass.back_passes { sk with Pass.st_options = options })

(** Compile one kernel function from C source to VHDL + estimates. *)
let compile ?instrument ?config ?(options = default_options) ?(luts = [])
    ~(entry : string) (source : string) : compiled =
  let fr = front_end ?instrument ?config ~options ~luts ~entry source in
  let sk = lower_to_kernel ?instrument ?config fr in
  back_end ?instrument ?config ~options sk

(** The kernel-eligible functions of a source file (array or pointer
    parameters), in definition order. *)
let eligible_entries (source : string) : string list =
  let program = Parser.parse_program source in
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
  let oks, errs =
    List.fold_left
      (fun (oks, errs) entry ->
        match compile ?config ~options ~luts ~entry source with
        | c -> (entry, c) :: oks, errs
        | exception Error msg -> oks, (entry, msg) :: errs)
      ([], []) (eligible_entries source)
  in
  List.rev oks, List.rev errs

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
  with Diag.Error { where = "vm" | "engine"; msg; _ } ->
    raise (Error (Printf.sprintf "simulation of %s: %s" c.entry msg))

(** Run the original C through the reference interpreter (same inputs). *)
let interpret ?(scalars = []) ?(arrays = []) (c : compiled) : Interp.outcome =
  let lut_sigs = List.map Lut_conv.signature c.luts in
  let lut_funcs = List.map Lut_conv.interp_binding c.luts in
  try
    Interp.run_source ~luts:lut_sigs ~lut_funcs ~scalars ~arrays c.source
      c.entry
  with Diag.Error { where = "interpretation"; msg; _ } ->
    raise (Error (Printf.sprintf "interpretation of %s: %s" c.entry msg))

(** Every difference between the hardware's outputs and the software
    outcome ([] when equal). A software array named in [inputs] is an
    input, which the hardware need not write back. *)
let compare_outputs ~(inputs : string list)
    ~(hw_arrays : (string * int64 array) list)
    ~(hw_scalars : (string * int64) list) (sw : Interp.outcome) : string list =
  (* newest first, reversed once at the end *)
  let diffs = ref [] in
  let diff fmt = Printf.ksprintf (fun d -> diffs := d :: !diffs) fmt in
  List.iter
    (fun (name, hw_data) ->
      match List.assoc_opt name sw.Interp.arrays with
      | Some sw_data when Array.length hw_data <> Array.length sw_data ->
        diff "%s: hw has %d elements, sw %d" name (Array.length hw_data)
          (Array.length sw_data)
      | Some sw_data ->
        Array.iteri
          (fun i v ->
            if not (Int64.equal v sw_data.(i)) then
              diff "%s[%d]: hw=%Ld sw=%Ld" name i v sw_data.(i))
          hw_data
      | None -> diff "missing sw array %s" name)
    hw_arrays;
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name sw.Interp.pointer_outputs with
      | Some sv when Int64.equal v sv -> ()
      | Some sv -> diff "%s: hw=%Ld sw=%Ld" name v sv
      | None -> diff "missing sw scalar %s" name)
    hw_scalars;
  (* software-side outputs the hardware never produced: a non-input array
     written by the C code, or a pointer output, must appear on the
     hardware side too *)
  List.iter
    (fun (name, _) ->
      if (not (List.mem_assoc name hw_arrays)) && not (List.mem name inputs)
      then diff "hw never wrote array %s" name)
    sw.Interp.arrays;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name hw_scalars) then
        diff "hw never wrote scalar %s" name)
    sw.Interp.pointer_outputs;
  List.rev !diffs

(** Co-simulation check: hardware simulation equals software semantics on
    the given inputs. Returns the diff report ([] when equivalent). *)
let verify ?(scalars = []) ?(arrays = []) (c : compiled) : string list =
  let hw = simulate ~scalars ~arrays c in
  compare_outputs ~inputs:(List.map fst arrays)
    ~hw_arrays:hw.Engine.output_arrays ~hw_scalars:hw.Engine.scalar_outputs
    (interpret ~scalars ~arrays c)

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
