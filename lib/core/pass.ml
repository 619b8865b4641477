(** The pass manager: every transformation of the Figure 1 pipeline —
    loop-level (HIR), SUIFvm (VM) and data-path — is a first-class value
    carrying its name, layer, option gate, IR-size metric, per-pass option
    fingerprint, an invariant verifier and an optional differential
    semantics check. The driver's stages are declarative lists of these
    values executed by {!run}; the batch service chains the per-pass
    fingerprints into cache keys so an option sweep reuses every pass
    before the first one that reads a swept option, not just whole
    stages.

    The manager:
    - runs each pass's verifier after it under [verify_ir]
      (or the [ROCCC_VERIFY_IR] environment variable);
    - co-runs the C interpreter, the VM evaluator and the data-path
      evaluator on deterministic vectors after each layer boundary under
      [differential], reporting the first diverging pass;
    - skips the optional passes named in the options' [disabled_passes]
      and prints IR after the passes named in [dump_after];
    - reports one {!pass_stats} record per executed pass to [instrument];
    - prefixes every error with the failing pass's name. *)

module Ast = Roccc_cfront.Ast
module Parser = Roccc_cfront.Parser
module Semant = Roccc_cfront.Semant
module Interp = Roccc_cfront.Interp
module Pretty = Roccc_cfront.Pretty
module Const_fold = Roccc_hir.Const_fold
module Loop_opt = Roccc_hir.Loop_opt
module Inline = Roccc_hir.Inline
module Lut_conv = Roccc_hir.Lut_conv
module Scalar_replacement = Roccc_hir.Scalar_replacement
module Feedback = Roccc_hir.Feedback
module Kernel = Roccc_hir.Kernel
module Lower = Roccc_vm.Lower
module Proc = Roccc_vm.Proc
module Eval = Roccc_vm.Eval
module Ssa = Roccc_analysis.Ssa
module Optimize = Roccc_analysis.Optimize
module Builder = Roccc_datapath.Builder
module Graph = Roccc_datapath.Graph
module Widths = Roccc_datapath.Widths
module Pipeline = Roccc_datapath.Pipeline
module Dp_eval = Roccc_datapath.Dp_eval
module Gen = Roccc_vhdl.Gen
module Lint = Roccc_vhdl.Lint
module Area = Roccc_fpga.Area
module Diag = Roccc_util.Diag

exception Error of string

exception Cancelled of string
(* Cooperative cancellation: raised between passes when the config's
   [cancel] hook reports a reason (e.g. a service request's deadline).
   Deliberately not an [Error]: callers distinguish "the compiler failed"
   from "the caller gave up". *)

(* The text of a compiler error: a pass failure, or a library's
   diagnostic not yet prefixed with the pass that met it. *)
let error_message (e : exn) : string option =
  match e with
  | Error msg -> Some msg
  | Diag.Error d -> Some (Diag.to_string d)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type options = {
  unroll_inner_max : int;
      (** fully unroll inner loops with at most this trip count *)
  unroll_all_max : int;
      (** fully unroll any constant loop with at most this trip count
          (turns small kernels into block kernels, as for the DCT) *)
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

let default_options =
  { unroll_inner_max = 0;
    unroll_all_max = 0;
    target_ns = Pipeline.default_target_ns;
    stage_budget = Roccc_datapath.Delay.default_stage_budget;
    decomp = Roccc_datapath.Delay.default_decomp;
    unroll_outer_factor = 1;
    lut_convert_max_bits = 0;
    bus_elements = 1;
    disabled_passes = [] }

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type pass_stats = {
  pass_name : string;
  started_s : float;   (** absolute wall-clock, seconds since the epoch *)
  elapsed_s : float;
  ir_size : int;       (** size of the active IR after the pass (0 = n/a) *)
}

type instrument = pass_stats -> unit

(* ------------------------------------------------------------------ *)
(* Pipeline state                                                      *)
(* ------------------------------------------------------------------ *)

(** The pipeline state threaded through the passes. Fields are filled in as
    the layers complete; a pass that needs a missing field is a pipeline
    construction error, reported by name. No pass mutates a value of its
    input state: the VM passes that rewrite a procedure in place (SSA
    conversion, the optimizer) work on a {!Proc.copy}, so every state is
    safe to cache and share across domains. *)
type state = {
  st_source : string;
  st_entry : string;
  st_options : options;
  st_luts : Lut_conv.table list;
  st_seed_luts : Lut_conv.table list;
      (** the tables registered at compilation start (before any
          lut-conversion) — what the original C source may call *)
  st_program : Ast.program option;  (** whole program, post-HIR transforms *)
  st_func : Ast.func option;        (** the entry function *)
  st_kernel : Kernel.t option;
  st_proc : Proc.t option;
  st_dp : Graph.t option;
  st_widths : Widths.t option;
  st_pipeline : Pipeline.t option;
  st_design : Roccc_vhdl.Ast.design option;
  st_buffer_configs : Roccc_buffers.Smart_buffer.config list;
  st_area : Area.estimate option;
  st_trace : string list;           (** executed pass names, in order *)
}

let initial ?(luts = []) ~(options : options) ~(entry : string)
    (source : string) : state =
  { st_source = source;
    st_entry = entry;
    st_options = options;
    st_luts = luts;
    st_seed_luts = luts;
    st_program = None;
    st_func = None;
    st_kernel = None;
    st_proc = None;
    st_dp = None;
    st_widths = None;
    st_pipeline = None;
    st_design = None;
    st_buffer_configs = [];
    st_area = None;
    st_trace = [] }

let need what = function
  | Some v -> v
  | None -> raise (Error ("pipeline state is missing the " ^ what))

let program_of st = need "program" st.st_program
let func_of st = need "entry function" st.st_func
let kernel_of st = need "kernel" st.st_kernel
let proc_of st = need "vm procedure" st.st_proc
let dp_of st = need "data path" st.st_dp
let widths_of st = need "signal widths" st.st_widths
let pipeline_of st = need "pipeline" st.st_pipeline

let ast_size (f : Ast.func) : int =
  Ast.fold_stmts (fun n _ -> n + 1) (fun n _ -> n + 1) 0 f.Ast.body

let program_size (p : Ast.program) : int =
  List.fold_left (fun n f -> n + ast_size f) 0 p.Ast.funcs

let proc_size (p : Proc.t) : int = List.length (Proc.all_instrs p)

(* ------------------------------------------------------------------ *)
(* Pass values                                                         *)
(* ------------------------------------------------------------------ *)

type layer = Cfront | Hir | Vm | Datapath | Vhdl | Fpga

let layer_name = function
  | Cfront -> "cfront"
  | Hir -> "hir"
  | Vm -> "vm"
  | Datapath -> "datapath"
  | Vhdl -> "vhdl"
  | Fpga -> "fpga"

type pass = {
  name : string;         (** the Figure 1 pass name, e.g. ["datapath-build"] *)
  layer : layer;
  optional : bool;
      (** optimization passes may be named in [disabled_passes]; required
          structural passes may not *)
  enabled : options -> bool;   (** static option gate *)
  applicable : state -> bool;  (** dynamic gate (e.g. nothing to convert) *)
  transform : state -> state;
  ir_size : state -> int;
  verifier : (state -> unit) option;      (** run under [verify_ir] *)
  differential : (state -> state -> unit) option;
      (** run under [differential] on the pass's input and output states *)
  dump : state -> string;                 (** IR printer for [dump_after] *)
  fingerprint : options -> string;
      (** canonical rendering of exactly the option fields the pass reads
          — chained into the cache keys of pipeline states and artifacts *)
}

let always _ = true
let no_fp (_ : options) = ""

(* A differential check that reads only the pass's output state. *)
let output_only check (_ : state) (st : state) = check st

(* ------------------------------------------------------------------ *)
(* Manager configuration                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  verify_ir : bool;           (** run each pass's verifier after it *)
  differential : bool;        (** run the differential semantics checks *)
  dump_after : string list;       (** pass names to print IR after *)
  on_dump : string -> string -> unit;  (** receives (pass name, dump text) *)
  instrument : instrument option;
  cancel : (unit -> string option) option;
      (** cooperative cancellation hook, polled at every pass boundary:
          returning [Some reason] makes {!step} raise {!Cancelled} before
          doing any further work (the service's per-request deadlines) *)
}

let env_flag name =
  match Sys.getenv_opt name with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let default_config () =
  { verify_ir = env_flag "ROCCC_VERIFY_IR";
    differential = env_flag "ROCCC_DIFFERENTIAL";
    dump_after = [];
    on_dump =
      (fun name text ->
        print_string (Printf.sprintf "=== after %s ===\n%s\n" name text));
    instrument = None;
    cancel = None }

(* ------------------------------------------------------------------ *)
(* Deterministic test vectors for the differential checker              *)
(* ------------------------------------------------------------------ *)

let diff_iterations = 4

(* Small positive values inside the kind's range: enough to exercise the
   arithmetic (including width truncation) without tripping division by
   zero on kernels that divide by an input. Kinds too narrow to hold a
   positive value (signed 1-bit, whose range is [-1, 0]) get 0. *)
let det_value ~(seed : int) ~(i : int) (kind : Ast.ikind) : int64 =
  let h = ((seed * 1103515245) + ((i + 1) * 12345)) land 0x3FFFFFFF in
  let cap =
    if kind.Ast.signed then (1 lsl (min 30 (kind.Ast.bits - 1))) - 1
    else (1 lsl min 30 kind.Ast.bits) - 1
  in
  if cap < 1 then 0L else Int64.of_int (1 + (h mod min 96 cap))

let seed_of (s : string) : int = Hashtbl.hash s land 0xFFFFFF

(* One scalar vector per stream iteration, keyed by port name — valid for
   the interpreter (dp parameters), the VM evaluator and the data-path
   evaluator, which all use the same names. *)
let port_vectors (ports : Proc.port list) : (string * int64) list list =
  List.init diff_iterations (fun it ->
      List.map
        (fun (p : Proc.port) ->
          ( p.Proc.port_name,
            det_value
              ~seed:(seed_of p.Proc.port_name + (31 * it))
              ~i:it p.Proc.port_kind ))
        ports)

let diff_errf check fmt = Diag.failf ("differential check (" ^ check ^ ")") fmt

let compare_values ~(check : string) ~(iter : int) ~(a_name : string)
    ~(b_name : string) (a : (string * int64) list) (b : (string * int64) list)
    : unit =
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name b with
      | Some vb when Int64.equal va vb -> ()
      | Some vb ->
        diff_errf check "iteration %d: %s: %s=%Ld but %s=%Ld" iter name a_name
          va b_name vb
      | None ->
        diff_errf check "iteration %d: %s missing %s" iter b_name name)
    a;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name a) then
        diff_errf check "iteration %d: %s missing %s" iter a_name name)
    b

let lut_bindings luts = List.map Lut_conv.interp_binding luts

(* HIR boundary: the loop-level transformations (LUT conversion, inlining,
   folding, unrolling, fusion) must preserve the C semantics — interpret
   the original source and the transformed program on the same
   deterministic inputs and compare every observable output. *)
let differential_front (st : state) : unit =
  let f = func_of st in
  let program = program_of st in
  let scalars =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.Ast.ptype with
        | Ast.Tint k ->
          Some (p.Ast.pname, det_value ~seed:(seed_of p.Ast.pname) ~i:0 k)
        | Ast.Tarray _ | Ast.Tptr _ | Ast.Tvoid -> None)
      f.Ast.params
  in
  let arrays =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.Ast.ptype with
        | Ast.Tarray (k, dims) ->
          let total = List.fold_left ( * ) 1 dims in
          Some
            ( p.Ast.pname,
              Array.init total (fun i ->
                  det_value ~seed:(seed_of p.Ast.pname) ~i k) )
        | Ast.Tint _ | Ast.Tptr _ | Ast.Tvoid -> None)
      f.Ast.params
  in
  let pre = st.st_seed_luts in
  let original =
    Interp.run_source
      ~luts:(List.map Lut_conv.signature pre)
      ~lut_funcs:(lut_bindings pre) ~scalars ~arrays st.st_source st.st_entry
  in
  let rt =
    Interp.create
      ~lut_funcs:(lut_bindings st.st_luts)
      { program with Ast.funcs = [ f ] }
  in
  let transformed = Interp.run rt st.st_entry ~scalars ~arrays in
  compare_values ~check:"hir" ~iter:0 ~a_name:"original C"
    ~b_name:"transformed C" original.Interp.pointer_outputs
    transformed.Interp.pointer_outputs;
  List.iter
    (fun (name, data) ->
      match List.assoc_opt name transformed.Interp.arrays with
      | None -> diff_errf "hir" "transformed C lost array %s" name
      | Some data' ->
        if Array.length data <> Array.length data' then
          diff_errf "hir" "array %s changed length" name;
        Array.iteri
          (fun i v ->
            if not (Int64.equal v data'.(i)) then
              diff_errf "hir" "array %s[%d]: original=%Ld transformed=%Ld"
                name i v data'.(i))
          data)
    original.Interp.arrays

(* VM boundary: run the C interpreter over the scalar dp function and the
   VM evaluator over the lowered procedure on the same vectors. Kernels
   with feedback skip the interpreter anchor (the dp function's
   ROCCC_load_prev has no cross-iteration meaning under plain
   interpretation); they are still covered by the VM-vs-VM and VM-vs-dp
   comparisons of the later boundaries. *)
let differential_lower (st : state) : unit =
  let kernel = kernel_of st in
  let proc = proc_of st in
  let vecs = port_vectors proc.Proc.inputs in
  let vm_results =
    Eval.run_stream ~luts:(lut_bindings st.st_luts) proc vecs
  in
  if kernel.Kernel.feedback = [] then begin
    let dp = kernel.Kernel.dp in
    let program =
      match st.st_program with
      | Some p -> { p with Ast.funcs = [ dp ] }
      | None -> { Ast.globals = []; funcs = [ dp ]; pipelines = [] }
    in
    let rt = Interp.create ~lut_funcs:(lut_bindings st.st_luts) program in
    List.iteri
      (fun it (vec, (vm : Eval.result)) ->
        let o = Interp.run rt dp.Ast.fname ~scalars:vec in
        compare_values ~check:"lower-to-suifvm" ~iter:it ~a_name:"C dp"
          ~b_name:"vm" o.Interp.pointer_outputs vm.Eval.outputs)
      (List.combine vecs vm_results)
  end

(* SSA / optimizer boundary: the rewritten procedure must still compute
   what its input procedure computed. *)
let differential_vm (check : string) (input : state) (st : state) : unit =
  let proc = proc_of st in
  let vecs = port_vectors proc.Proc.inputs in
  let luts = lut_bindings st.st_luts in
  let before = Eval.run_stream ~luts (proc_of input) vecs in
  let after = Eval.run_stream ~luts proc vecs in
  List.iteri
    (fun it ((b : Eval.result), (a : Eval.result)) ->
      compare_values ~check ~iter:it ~a_name:"input vm" ~b_name:"vm"
        b.Eval.outputs a.Eval.outputs;
      compare_values ~check ~iter:it ~a_name:"input vm feedback"
        ~b_name:"vm feedback" b.Eval.feedback_next a.Eval.feedback_next)
    (List.combine before after)

(* Data-path boundary: all control flow is gone (both branch lanes compute,
   muxes select); the node graph must still match the VM procedure. *)
let differential_dp (st : state) : unit =
  let proc = proc_of st in
  let dp = dp_of st in
  let vecs = port_vectors proc.Proc.inputs in
  let luts = lut_bindings st.st_luts in
  let vm = Eval.run_stream ~luts proc vecs in
  let hw = Dp_eval.run_stream ~luts dp vecs in
  List.iteri
    (fun it ((a : Eval.result), (b : Dp_eval.result)) ->
      compare_values ~check:"datapath-build" ~iter:it ~a_name:"vm"
        ~b_name:"datapath" a.Eval.outputs b.Dp_eval.outputs;
      compare_values ~check:"datapath-build" ~iter:it ~a_name:"vm feedback"
        ~b_name:"datapath feedback" a.Eval.feedback_next
        b.Dp_eval.feedback_next)
    (List.combine vm hw)

(* Width boundary: evaluating with every signal truncated to its inferred
   width must equal full-width evaluation (the §4.2.4 soundness claim). *)
let differential_widths (st : state) : unit =
  let dp = dp_of st in
  let widths = widths_of st in
  let vecs = port_vectors dp.Graph.input_ports in
  let luts = lut_bindings st.st_luts in
  let full_dp = Dp_eval.prepare ~luts dp in
  let narrow_dp = Dp_eval.prepare ~luts ~widths dp in
  let rec go it fb_full fb_narrow = function
    | [] -> ()
    | vec :: rest ->
      let full =
        Dp_eval.run_prepared ?feedback_prev:fb_full full_dp ~inputs:vec
      in
      let narrow =
        Dp_eval.run_prepared ?feedback_prev:fb_narrow narrow_dp ~inputs:vec
      in
      compare_values ~check:"bit-width-inference" ~iter:it ~a_name:"full"
        ~b_name:"narrowed" full.Dp_eval.outputs narrow.Dp_eval.outputs;
      go (it + 1)
        (Some full.Dp_eval.feedback_next)
        (Some narrow.Dp_eval.feedback_next)
        rest
  in
  go 0 None None vecs

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let dump_func st = Pretty.func_to_string (func_of st)

let dump_kernel st =
  let k = kernel_of st in
  Kernel.describe k ^ Pretty.func_to_string k.Kernel.dp

let dump_proc st = Proc.to_string (proc_of st)
let dump_dp st = Graph.to_string (dp_of st)

let find_entry (program : Ast.program) (entry : string) ~(where : string) :
    Ast.func =
  match
    List.find_opt (fun g -> String.equal g.Ast.fname entry) program.Ast.funcs
  with
  | Some f -> f
  | None ->
    raise
      (Error
         (if String.equal where "parse" then "no function named " ^ entry
          else Printf.sprintf "function %s lost during %s" entry where))

let parse_pass =
  { name = "parse";
    layer = Cfront;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        { st with st_program = Some (Parser.parse_program st.st_source) });
    ir_size = (fun st -> program_size (program_of st));
    verifier = None;
    differential = None;
    dump = (fun st -> Pretty.program_to_string (program_of st));
    fingerprint = no_fp }

let semantic_check_pass =
  { name = "semantic-check";
    layer = Cfront;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let program = program_of st in
        let lut_sigs = List.map Lut_conv.signature st.st_luts in
        ignore (Semant.check_program ~luts:lut_sigs program);
        let f = find_entry program st.st_entry ~where:"parse" in
        { st with st_func = Some f });
    ir_size = (fun _ -> 0);
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = no_fp }

(* "Function calls will either be inlined or whenever feasible made into a
   lookup table" (paper §2). A called function is tabulated when it is
   pure, takes one scalar of at most [lut_convert_max_bits], and returns an
   integer; otherwise it is inlined. *)
let convertible_luts (st : state) : Lut_conv.table list =
  let program = program_of st in
  let f = func_of st in
  let called_names =
    Ast.fold_stmts
      (fun acc _ -> acc)
      (fun acc e ->
        match e with
        | Ast.Call (g, _) when not (Ast.is_intrinsic g) -> g :: acc
        | _ -> acc)
      [] f.Ast.body
    |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun name ->
      match
        List.find_opt
          (fun g -> String.equal g.Ast.fname name)
          program.Ast.funcs
      with
      | Some callee -> (
        match callee.Ast.params, callee.Ast.ret with
        | [ { Ast.ptype = Ast.Tint k; _ } ], Ast.Tint _
          when k.Ast.bits <= st.st_options.lut_convert_max_bits -> (
          match Lut_conv.from_function program callee with
          | table -> Some table
          | exception Diag.Error { where = "lut conversion"; _ } -> None)
        | _ -> None)
      | None -> None)
    called_names

let lut_conversion_pass =
  { name = "lut-conversion";
    layer = Hir;
    optional = true;
    enabled = (fun o -> o.lut_convert_max_bits > 0);
    applicable = (fun st -> convertible_luts st <> []);
    transform =
      (fun st ->
        let convertible = convertible_luts st in
        let program =
          Lut_conv.convert_calls (program_of st) convertible
        in
        let f = find_entry program st.st_entry ~where:"LUT conversion" in
        { st with
          st_program = Some program;
          st_func = Some f;
          st_luts = st.st_luts @ convertible });
    ir_size = (fun st -> List.length st.st_luts);
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = (fun o -> Printf.sprintf "lut=%d" o.lut_convert_max_bits) }

let update_func (st : state) (f : Ast.func) : state =
  { st with
    st_func = Some f;
    st_program =
      Option.map
        (fun (p : Ast.program) ->
          { p with
            Ast.funcs =
              List.map
                (fun g ->
                  if String.equal g.Ast.fname f.Ast.fname then f else g)
                p.Ast.funcs })
        st.st_program }

let inline_pass =
  { name = "inline";
    layer = Hir;
    optional = false;  (* lowering cannot digest residual calls *)
    enabled = always;
    applicable = always;
    transform =
      (fun st -> update_func st (Inline.inline_calls (program_of st) (func_of st)));
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = no_fp }

let constant_fold_transform st =
  let program = program_of st in
  let f = func_of st in
  let consts = Const_fold.readonly_global_consts program f in
  update_func st (Const_fold.optimize_func ~consts f)

let constant_fold_pass =
  { name = "constant-fold";
    layer = Hir;
    optional = true;
    enabled = always;
    applicable = always;
    transform = constant_fold_transform;
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = no_fp }

(* Unroll loops nested inside other loops (the udiv/sqrt bit-step loops)
   while keeping the outer streaming loop. *)
let unroll_inner ~max_trip stmts =
  List.map
    (fun s ->
      match s with
      | Ast.Sfor (h, body) ->
        Ast.Sfor (h, Loop_opt.unroll_small_loops ~max_trip body)
      | s -> s)
    stmts

let unroll_inner_pass =
  { name = "unroll-inner-loops";
    layer = Hir;
    optional = true;
    enabled = (fun o -> o.unroll_inner_max > 0);
    applicable = always;
    transform =
      (fun st ->
        let f = func_of st in
        update_func st
          { f with
            Ast.body =
              unroll_inner ~max_trip:st.st_options.unroll_inner_max f.Ast.body });
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = (fun o -> Printf.sprintf "ui=%d" o.unroll_inner_max) }

let full_unroll_pass =
  { name = "full-unroll";
    layer = Hir;
    optional = true;
    enabled = (fun o -> o.unroll_all_max > 0);
    applicable = always;
    transform =
      (fun st ->
        let f = func_of st in
        update_func st
          { f with
            Ast.body =
              Loop_opt.unroll_small_loops ~max_trip:st.st_options.unroll_all_max
                f.Ast.body });
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = (fun o -> Printf.sprintf "ua=%d" o.unroll_all_max) }

let partial_unroll_pass =
  { name = "partial-unroll";
    layer = Hir;
    optional = true;
    enabled = (fun o -> o.unroll_outer_factor > 1);
    (* only a top-level loop is unrolled: without one the transform is
       the identity, and skipping it lets the service's chain converge *)
    applicable =
      (fun st ->
        List.exists
          (function Ast.Sfor _ -> true | _ -> false)
          (func_of st).Ast.body);
    transform =
      (fun st ->
        let f = func_of st in
        let body =
          List.map
            (fun s ->
              match s with
              | Ast.Sfor (h, body) ->
                let h', body' =
                  Loop_opt.partially_unroll
                    ~factor:st.st_options.unroll_outer_factor h body
                in
                Ast.Sfor (h', body')
              | s -> s)
            f.Ast.body
        in
        update_func st { f with Ast.body });
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = (fun o -> Printf.sprintf "uo=%d" o.unroll_outer_factor) }

let loop_fusion_pass =
  { name = "loop-fusion";
    layer = Hir;
    optional = true;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let f = func_of st in
        update_func st { f with Ast.body = Loop_opt.fuse_loops f.Ast.body });
    ir_size = (fun st -> ast_size (func_of st));
    verifier = None;
    differential = None;
    dump = dump_func;
    fingerprint = no_fp }

let scalar_replacement_pass =
  { name = "scalar-replacement";
    layer = Hir;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let program = program_of st in
        let f = func_of st in
        let program = { program with Ast.funcs = [ f ] } in
        { st with st_kernel = Some (Scalar_replacement.run program f) });
    ir_size = (fun st -> ast_size (kernel_of st).Kernel.dp);
    verifier = Some (fun st -> Kernel.verify (kernel_of st));
    differential = Some (output_only differential_front);
    dump = dump_kernel;
    fingerprint = no_fp }

let feedback_detection_pass =
  { name = "feedback-detection";
    layer = Hir;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let k = Feedback.annotate (kernel_of st) in
        Feedback.validate k;
        { st with st_kernel = Some k });
    ir_size = (fun st -> ast_size (kernel_of st).Kernel.dp);
    verifier = Some (fun st -> Kernel.verify (kernel_of st));
    differential = None;
    dump = dump_kernel;
    fingerprint = no_fp }

let lower_pass =
  { name = "lower-to-suifvm";
    layer = Vm;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let lut_sigs = List.map Lut_conv.signature st.st_luts in
        let proc = Lower.lower_kernel ~luts:lut_sigs (kernel_of st) in
        { st with st_proc = Some proc });
    ir_size = (fun st -> proc_size (proc_of st));
    verifier = Some (fun st -> Proc.verify_cfg (proc_of st));
    differential = Some (output_only differential_lower);
    dump = dump_proc;
    fingerprint = no_fp }

let vm_verifier st =
  let proc = proc_of st in
  Proc.verify_cfg proc;
  Ssa.verify proc;
  Ssa.verify_dominance proc

let ssa_pass =
  { name = "ssa-and-cfg";
    layer = Vm;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let proc = Proc.copy (proc_of st) in
        let _cfg = Ssa.convert proc in
        Ssa.verify proc;
        { st with st_proc = Some proc });
    ir_size = (fun st -> proc_size (proc_of st));
    verifier = Some vm_verifier;
    differential = Some (differential_vm "ssa-and-cfg");
    dump = dump_proc;
    fingerprint = no_fp }

let vm_optimize_pass =
  { name = "vm-optimize";
    layer = Vm;
    optional = true;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let proc = Proc.copy (proc_of st) in
        let _stats = Optimize.run proc in
        Ssa.verify proc;
        { st with st_proc = Some proc });
    ir_size = (fun st -> proc_size (proc_of st));
    verifier = Some vm_verifier;
    differential = Some (differential_vm "vm-optimize");
    dump = dump_proc;
    fingerprint = no_fp }

let datapath_build_pass =
  { name = "datapath-build";
    layer = Datapath;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let dp = Builder.build (proc_of st) in
        Builder.verify_adjoining dp;
        { st with st_dp = Some dp });
    ir_size = (fun st -> Graph.instr_count (dp_of st));
    verifier =
      Some
        (fun st ->
          let dp = dp_of st in
          Graph.verify dp;
          Builder.verify_adjoining dp);
    differential = Some (output_only differential_dp);
    dump = dump_dp;
    fingerprint = no_fp }

let widths_verifier st =
  let dp = dp_of st in
  let widths = widths_of st in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (i : Roccc_vm.Instr.instr) ->
          match i.Roccc_vm.Instr.dst with
          | Some d ->
            let w = Widths.width widths d in
            if w < 1 || w > 64 then
              Diag.failf "width inference" "v%d has width %d outside [1,64]"
                d w
          | None -> ())
        n.Graph.instrs)
    dp.Graph.nodes

let width_inference_pass =
  { name = "bit-width-inference";
    layer = Datapath;
    optional = true;  (* disabled, pipelining keeps the declared widths *)
    enabled = always;
    applicable = always;
    transform =
      (fun st -> { st with st_widths = Some (Widths.infer (dp_of st)) });
    ir_size = (fun st -> Graph.instr_count (dp_of st));
    verifier = Some widths_verifier;
    differential = Some (output_only differential_widths);
    dump =
      (fun st ->
        Printf.sprintf "total inferred bits: %d\n"
          (Widths.total_bits (widths_of st)));
    fingerprint = no_fp }

let pipelining_pass =
  { name = "pipelining";
    layer = Datapath;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let dp = dp_of st in
        let widths =
          match st.st_widths with
          | Some w -> w
          | None -> Widths.declared dp  (* bit-width-inference disabled *)
        in
        let p =
          Pipeline.build ~target_ns:st.st_options.target_ns
            ~stage_budget:st.st_options.stage_budget
            ~decomp:st.st_options.decomp ~retime:false dp widths
        in
        { st with st_widths = Some widths; st_pipeline = Some p });
    ir_size = (fun st -> Pipeline.latency (pipeline_of st));
    verifier = Some (fun st -> Pipeline.verify (pipeline_of st));
    differential = None;
    dump = (fun st -> Pipeline.describe (pipeline_of st));
    fingerprint =
      (fun o ->
        Printf.sprintf "tns=%h;sb=%d;dc=%s" o.target_ns o.stage_budget
          (Roccc_datapath.Delay.decomp_name o.decomp)) }

(* Retiming boundary: rebuild the greedy staging from the state's data path
   and widths, and check the exact retimer against it — the same stage
   count, no more latch bits, a worst stage delay within the greedy
   budget, and every pinned instruction (LPR/SNX, feedback paths,
   multi-stage regions) where greedy placement put it. *)
let differential_retiming (st : state) : unit =
  let o = st.st_options in
  let greedy =
    Pipeline.build ~target_ns:o.target_ns ~stage_budget:o.stage_budget
      ~decomp:o.decomp ~retime:false (dp_of st) (widths_of st)
  in
  let p = pipeline_of st in
  let check = "retiming" in
  if p.Pipeline.stage_count <> greedy.Pipeline.stage_count then
    diff_errf check "%d stage(s), greedy placement has %d"
      p.Pipeline.stage_count greedy.Pipeline.stage_count;
  if p.Pipeline.latch_bits > greedy.Pipeline.latch_bits then
    diff_errf check "%d latch bits, greedy placement has %d"
      p.Pipeline.latch_bits greedy.Pipeline.latch_bits;
  let worst q = Array.fold_left Float.max 0.0 q.Pipeline.stage_delays in
  if worst p > worst greedy +. 1e-9 then
    diff_errf check "worst stage delay %.3f ns over the greedy budget %.3f ns"
      (worst p) (worst greedy);
  let pin = Pipeline.pinned greedy.Pipeline.timing in
  List.iteri
    (fun i ((a : Pipeline.staged_instr), (g : Pipeline.staged_instr)) ->
      if pin.(i) && a.Pipeline.stage <> g.Pipeline.stage then
        diff_errf check "pinned %s moved from stage %d to %d"
          (Roccc_vm.Instr.to_string g.Pipeline.si) g.Pipeline.stage
          a.Pipeline.stage)
    (List.combine p.Pipeline.instrs greedy.Pipeline.instrs)

(* Exact min-area retiming over the greedy staging. Disabling it
   (--disable-pass retiming) is the greedy-placement ablation. *)
let retiming_pass =
  { name = "retiming";
    layer = Datapath;
    optional = true;
    enabled = always;
    applicable = always;
    transform =
      (fun st -> { st with st_pipeline = Some (Pipeline.retime (pipeline_of st)) });
    ir_size = (fun st -> (pipeline_of st).Pipeline.latch_bits);
    verifier = Some (fun st -> Pipeline.verify (pipeline_of st));
    differential = Some (output_only differential_retiming);
    dump = (fun st -> Pipeline.describe (pipeline_of st));
    fingerprint = no_fp }

let vhdl_generation_pass =
  { name = "vhdl-generation";
    layer = Vhdl;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let design = Gen.generate ~luts:st.st_luts (pipeline_of st) in
        { st with st_design = Some design });
    ir_size =
      (fun st ->
        match st.st_design with
        | Some d -> List.length d.Roccc_vhdl.Ast.units
        | None -> 0);
    verifier = None;  (* the linter below is the VHDL verifier *)
    differential = None;
    dump =
      (fun st ->
        match st.st_design with
        | Some d -> Roccc_vhdl.Ast.to_string d
        | None -> "");
    fingerprint = no_fp }

let vhdl_lint_pass =
  { name = "vhdl-lint";
    layer = Vhdl;
    optional = true;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        (match Lint.check (need "design" st.st_design) with
        | _ -> ()
        | exception Diag.Error { where = "vhdl lint"; msg; _ } ->
          Diag.failf "generated VHDL fails lint" "%s" msg);
        st);
    ir_size = (fun _ -> 0);
    verifier = None;
    differential = None;
    dump = (fun _ -> "");
    fingerprint = no_fp }

(* Smart-buffer configurations for the kernel's window inputs — shared by
   the simulator and the area estimator. *)
let buffer_configs_of ~(bus_elements : int) (k : Kernel.t) :
    Roccc_buffers.Smart_buffer.config list =
  List.map
    (fun (w : Kernel.window_input) ->
      let ndims = List.length w.Kernel.win_dims in
      let iterations, stride, lower =
        if k.Kernel.loops = [] then
          ( List.init ndims (fun _ -> 1),
            List.init ndims (fun _ -> 0),
            List.init ndims (fun _ -> 0) )
        else
          ( List.map (fun d -> d.Kernel.count) k.Kernel.loops,
            List.map (fun d -> d.Kernel.step) k.Kernel.loops,
            List.map (fun d -> d.Kernel.lower) k.Kernel.loops )
      in
      { Roccc_buffers.Smart_buffer.element_bits = w.Kernel.win_kind.Ast.bits;
        element_signed = w.Kernel.win_kind.Ast.signed;
        bus_elements;
        array_dims = w.Kernel.win_dims;
        window_offsets = w.Kernel.win_offsets;
        stride;
        iterations;
        lower })
    k.Kernel.windows

let area_estimation_pass =
  { name = "area-estimation";
    layer = Fpga;
    optional = false;
    enabled = always;
    applicable = always;
    transform =
      (fun st ->
        let buffer_configs =
          buffer_configs_of ~bus_elements:st.st_options.bus_elements
            (kernel_of st)
        in
        let area =
          Area.estimate ~luts:st.st_luts ~buffers:buffer_configs
            (pipeline_of st)
        in
        { st with st_buffer_configs = buffer_configs; st_area = Some area });
    ir_size =
      (fun st ->
        match st.st_area with Some a -> a.Area.slices | None -> 0);
    verifier = None;
    differential = None;
    dump =
      (fun st ->
        match st.st_area with Some a -> Area.describe a | None -> "");
    fingerprint = (fun o -> Printf.sprintf "bus=%d" o.bus_elements) }

(* The three stage pipelines of the driver. The second constant-fold run
   cleans up after unrolling and fusion, exactly as in the paper's flow. *)
let front_passes : pass list =
  [ parse_pass;
    semantic_check_pass;
    lut_conversion_pass;
    inline_pass;
    constant_fold_pass;
    unroll_inner_pass;
    full_unroll_pass;
    partial_unroll_pass;
    loop_fusion_pass;
    constant_fold_pass ]

let kernel_passes : pass list =
  [ scalar_replacement_pass; feedback_detection_pass ]

let back_passes : pass list =
  [ lower_pass;
    ssa_pass;
    vm_optimize_pass;
    datapath_build_pass;
    width_inference_pass;
    pipelining_pass;
    retiming_pass;
    vhdl_generation_pass;
    vhdl_lint_pass;
    area_estimation_pass ]

let all_passes : pass list = front_passes @ kernel_passes @ back_passes

let pass_names () : string list =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun p ->
      if Hashtbl.mem seen p.name then None
      else begin
        Hashtbl.replace seen p.name ();
        Some p.name
      end)
    all_passes

let find (name : string) : pass option =
  List.find_opt (fun p -> String.equal p.name name) all_passes

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let prefix_pass name msg =
  if String.length msg >= String.length name
     && String.equal (String.sub msg 0 (String.length name)) name
  then msg
  else name ^ ": " ^ msg

(* Every error escaping a pass carries the failing pass's name, so the
   CLI and the batch service report "where", not just "what". *)
let with_pass_name (name : string) (f : unit -> 'a) : 'a =
  try f ()
  with e -> (
    match error_message e with
    | Some m -> raise (Error (prefix_pass name m))
    | None -> raise e)

(* Whether [p] runs under [options]: its option gate is open and, when it
   is optional, [disabled_passes] does not name it. *)
let runs (options : options) (p : pass) : bool =
  p.enabled options
  && not (p.optional && List.mem p.name options.disabled_passes)

(** The passes of [passes] that would execute under [options], in order —
    the basis for the service's cache keys. A pass whose dynamic
    [applicable] gate later skips is listed too; {!step} then returns its
    input state physically, and the service chains no key for it. *)
let executed (options : options) (passes : pass list) : pass list =
  List.filter (runs options) passes

let check_names ?(dump_after = []) (options : options) : (unit, string) result
    =
  let problem (flag, n) =
    match find n with
    | None ->
      Some
        (Printf.sprintf "%s: unknown pass %s (known: %s)" flag n
           (String.concat ", " (pass_names ())))
    | Some p when flag = "--disable-pass" && not p.optional ->
      Some (Printf.sprintf "pass %s is required and cannot be disabled" n)
    | Some _ -> None
  in
  match
    List.find_map problem
      (List.map (fun n -> "--disable-pass", n) options.disabled_passes
      @ List.map (fun n -> "--dump-after", n) dump_after)
  with
  | Some msg -> Error msg
  | None -> Ok ()

let validate ?(dump_after = []) (options : options) : (unit, string) result =
  Result.bind (check_names ~dump_after options) (fun () ->
      let skipped n =
        not
          (List.exists
             (fun p -> String.equal p.name n && runs options p)
             all_passes)
      in
      match List.find_opt skipped dump_after with
      | Some n ->
        Error
          (Printf.sprintf
             "--dump-after: pass %s is skipped under these options \
              (disabled or gated off)" n)
      | None -> Ok ())

let check_cancel (config : config) : unit =
  match config.cancel with
  | None -> ()
  | Some poll -> (
    match poll () with
    | Some reason -> raise (Cancelled reason)
    | None -> ())

(** Run one pass on the state: skipped (returning the state unchanged)
    when {!runs} or its dynamic applicability says so;
    otherwise transformed, traced, instrumented, verified and dumped
    according to [config]. *)
let step ?config (p : pass) (st : state) : state =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  check_cancel config;
  if not (runs st.st_options p) then st
  else if not (with_pass_name p.name (fun () -> p.applicable st)) then st
  else begin
    let t0 = Unix.gettimeofday () in
    let st' = with_pass_name p.name (fun () -> p.transform st) in
    let t1 = Unix.gettimeofday () in
    let st' = { st' with st_trace = st'.st_trace @ [ p.name ] } in
    (match config.instrument with
    | Some emit ->
      emit
        { pass_name = p.name;
          started_s = t0;
          elapsed_s = t1 -. t0;
          ir_size = with_pass_name p.name (fun () -> p.ir_size st') }
    | None -> ());
    if config.verify_ir then
      Option.iter
        (fun v ->
          with_pass_name p.name (fun () ->
              try v st'
              with e -> (
                match error_message e with
                | Some m -> raise (Error ("ir verification: " ^ m))
                | None -> raise e)))
        p.verifier;
    if config.differential then
      Option.iter
        (fun d -> with_pass_name p.name (fun () -> d st st'))
        p.differential;
    if List.mem p.name config.dump_after then
      config.on_dump p.name (with_pass_name p.name (fun () -> p.dump st'));
    st'
  end

(** Run a pass pipeline over the state. Raises {!Error} with the failing
    pass's name on any failure. *)
let run ?config (passes : pass list) (st : state) : state =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  Result.iter_error
    (fun msg -> raise (Error msg))
    (check_names ~dump_after:config.dump_after st.st_options);
  List.fold_left (fun st p -> step ~config p st) st passes
