(** Virtex-II area estimation (the paper's experimental substrate: a Xilinx
    xc2v2000-5; area reported in slices). One slice holds two 4-input LUTs
    and two flip-flops. This module plays the role of the synthesis tool in
    Table 1: it derives LUT/FF counts from the compiled data path (at the
    *inferred* signal widths) and converts them to slices with a packing
    factor.

    It also implements the compile-time area estimator from the paper's
    reference [13] — "in less than one millisecond and within 5% accuracy
    compile time area estimation can be achieved" — which the bench harness
    times. *)

module Instr = Roccc_vm.Instr
module Graph = Roccc_datapath.Graph
module Widths = Roccc_datapath.Widths
module Pipeline = Roccc_datapath.Pipeline
module Smart_buffer = Roccc_buffers.Smart_buffer
module Lut_conv = Roccc_hir.Lut_conv

type estimate = {
  luts : int;
  flip_flops : int;
  rom_luts : int;     (** distributed-ROM LUTs for lookup tables *)
  slices : int;       (** full system: data path + buffers + controllers *)
  operator_slices : int;
      (** data path + registers + ROMs only — comparable to an operator IP
          core that has no memory-side wrapper *)
  clock_mhz : float;
  breakdown : (string * int) list;  (** component -> slices *)
}

(* Imperfect packing: LUTs and FFs rarely share slices perfectly. *)
let packing_factor = 1.18

let slices_of ~luts ~flip_flops =
  let ideal = float_of_int (max luts flip_flops) /. 2.0 in
  int_of_float (Float.ceil (ideal *. packing_factor))

(* Constant operand detection shared with the delay model. *)
let constant_sources = Graph.constant_values

let popcount64 (v : int64) : int =
  let rec loop v acc =
    if Int64.equal v 0L then acc
    else loop (Int64.shift_right_logical v 1)
        (acc + Int64.to_int (Int64.logand v 1L))
  in
  loop (Int64.abs v) 0

(** LUT cost of one instruction at the given operand widths. *)
let instr_luts (consts : (Instr.vreg, int64) Hashtbl.t) (i : Instr.instr)
    (width_of : Instr.vreg -> int) : int =
  let src n = List.nth i.Instr.srcs n in
  let w n = width_of (src n) in
  let wmax () =
    match i.Instr.srcs with
    | [] -> 1
    | srcs -> List.fold_left (fun acc r -> max acc (width_of r)) 1 srcs
  in
  match i.Instr.op with
  | Instr.Add | Instr.Sub | Instr.Neg -> wmax ()
  | Instr.Mul -> (
    (* constant multiplier: one adder row per set bit beyond the first *)
    let const_of n = Hashtbl.find_opt consts (src n) in
    match const_of 0, const_of 1 with
    | Some c, _ | _, Some c ->
      let rows = max 0 (popcount64 c - 1) in
      rows * (w 0 + w 1)
    | None, None ->
      (* the cheaper of the naive w0*w1 LUT array and the decomposed
         partial-product / compression tree: both grow with the operand
         widths, so their minimum does too, and a wider port never costs
         fewer LUTs *)
      min (w 0 * w 1)
        (Roccc_ip_wide.Wide.mul_luts ~width:(min 64 (w 0 + w 1))))
  | Instr.Div | Instr.Rem -> (
    let power_of_two c =
      Int64.compare c 0L > 0
      && Int64.equal (Int64.logand c (Int64.sub c 1L)) 0L
    in
    match Hashtbl.find_opt consts (src 1) with
    | Some c when power_of_two c ->
      (* shift plus rounding-correction adder *)
      wmax ()
    | _ ->
      (* unrolled restoring divider: one conditional subtract per bit *)
      let wd = wmax () in
      wd * wd)
  | Instr.Shl | Instr.Shr -> (
    (* constant shift is wiring; variable shift is a barrel shifter *)
    match Hashtbl.find_opt consts (src 1) with
    | Some _ -> 0
    | None -> w 0 * max 1 (Roccc_util.Bits.clog2 (max 2 (w 0))))
  | Instr.Band | Instr.Bor | Instr.Bxor -> (
    (* a constant mask is wiring: only non-constant bit pairs need LUTs *)
    match Hashtbl.find_opt consts (src 0), Hashtbl.find_opt consts (src 1) with
    | Some _, _ | _, Some _ -> 0
    | None, None -> wmax ())
  | Instr.Bnot -> 0  (* absorbed into downstream logic *)
  | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge -> wmax ()
  | Instr.Seq | Instr.Sne -> wmax ()
  | Instr.Land | Instr.Lor | Instr.Lnot -> 1
  | Instr.Mov | Instr.Cvt | Instr.Ldc _ -> 0
  | Instr.Mux -> wmax ()
  | Instr.Lpr _ | Instr.Snx _ -> 0  (* register, counted as FFs *)
  | Instr.Lut _ -> 0                (* counted via rom_luts *)

(** Distributed-ROM LUT count: a 4-LUT holds 16 bits of ROM. Pre-existing
    library tables (cos/sin) store only a half wave and mirror the rest —
    "this cos/sin lookup table stores only half wave, which is one of the
    reasons [it] utilizes less area" (paper §5) — plus quarter-wave folding
    and the mirror logic. *)
let rom_luts_of (t : Lut_conv.table) : int =
  let entries = Lut_conv.size t in
  let bits = entries * t.Lut_conv.out_kind.Roccc_cfront.Ast.bits in
  let full = (bits + 15) / 16 in
  if t.Lut_conv.preexisting then
    (full / 4) + (2 * t.Lut_conv.out_kind.Roccc_cfront.Ast.bits)
  else full

(** Area of a compiled kernel: data path + pipeline latches + feedback
    registers + smart buffers + controllers + ROMs. *)
let estimate ?(luts = []) ?(buffers = []) (p : Pipeline.t) : estimate =
  let dp = p.Pipeline.dp in
  let widths = p.Pipeline.widths in
  let consts = constant_sources dp in
  let width_of r =
    try Widths.width widths r with _ -> 32
  in
  let dp_luts =
    List.fold_left
      (fun acc (n : Graph.node) ->
        List.fold_left
          (fun acc i -> acc + instr_luts consts i width_of)
          acc n.Graph.instrs)
      0 dp.Graph.nodes
  in
  (* pipeline flip-flops come from the pipeliner's own latch accounting —
     the area model does not re-derive register placement *)
  let latch_ffs = Pipeline.register_bits p in
  let buffer_bits =
    List.fold_left
      (fun acc cfg -> acc + Smart_buffer.capacity_bits cfg)
      0 buffers
  in
  (* buffer steering logic: one mux layer over the window elements *)
  let buffer_luts =
    List.fold_left
      (fun acc (cfg : Smart_buffer.config) ->
        acc
        + (List.length cfg.Smart_buffer.window_offsets
           * cfg.Smart_buffer.element_bits / 2))
      0 buffers
  in
  (* controllers: address counters + FSM *)
  let controller_slices = if buffers = [] then 4 else 12 + (6 * List.length buffers) in
  let table_luts = List.fold_left (fun acc t -> acc + rom_luts_of t) 0 luts in
  let total_luts = dp_luts + buffer_luts + table_luts in
  let total_ffs = latch_ffs + buffer_bits in
  let logic_slices = slices_of ~luts:total_luts ~flip_flops:total_ffs in
  let slices = logic_slices + controller_slices in
  let operator_slices =
    slices_of ~luts:(dp_luts + table_luts) ~flip_flops:latch_ffs
  in
  { luts = total_luts;
    flip_flops = total_ffs;
    rom_luts = table_luts;
    slices;
    operator_slices;
    clock_mhz = p.Pipeline.clock_mhz;
    breakdown =
      [ "datapath-logic", slices_of ~luts:dp_luts ~flip_flops:0;
        "pipeline-registers", slices_of ~luts:0 ~flip_flops:latch_ffs;
        "smart-buffers",
        slices_of ~luts:buffer_luts ~flip_flops:buffer_bits;
        "controllers", controller_slices;
        "lookup-tables", slices_of ~luts:table_luts ~flip_flops:0 ] }

(* ------------------------------------------------------------------ *)
(* Fast compile-time estimator (paper reference [13])                  *)
(* ------------------------------------------------------------------ *)

(** O(#instructions) area estimate used during loop-unrolling decisions —
    one width-inference pass plus per-instruction LUT costs, without the
    pipeline construction the full flow performs. The bench verifies it
    runs in well under a millisecond and tracks {!estimate} closely. *)
let quick_estimate (dp : Graph.t) : int =
  let consts = constant_sources dp in
  let widths = Widths.infer dp in
  let width_of r = try Widths.width widths r with _ -> 32 in
  let luts =
    List.fold_left
      (fun acc (n : Graph.node) ->
        List.fold_left
          (fun acc (i : Instr.instr) -> acc + instr_luts consts i width_of)
          acc n.Graph.instrs)
      0 dp.Graph.nodes
  in
  (* assume roughly one latch level of the non-constant signals *)
  let level_bits =
    List.fold_left
      (fun acc (n : Graph.node) ->
        acc
        + List.fold_left
            (fun acc (i : Instr.instr) ->
              match i.Instr.dst with
              | Some d when not (Hashtbl.mem consts d) -> acc + width_of d
              | Some _ | None -> acc)
            0 n.Graph.instrs)
      0 dp.Graph.nodes
  in
  slices_of ~luts ~flip_flops:(level_bits / 2)

(* Estimate-only clock costing for the autotuner's pruning tier: the
   stage delay of a greedy chunking is bounded by the target unless a
   single operator is slower than the whole budget, so the achievable
   clock is priced from max(target, worst single-instruction delay)
   without running pipelining at all. *)
let quick_clock_mhz ?stage_budget ?decomp ~(target_ns : float) (dp : Graph.t)
    (widths : Widths.t) : float =
  let worst =
    Roccc_datapath.Timing.worst_instr_delay_ns ?stage_budget ?decomp dp widths
  in
  Roccc_datapath.Delay.clock_mhz_of_stage_delay (Float.max target_ns worst)

(** The paper's target device: Xilinx Virtex-II xc2v2000-5. *)
let xc2v2000_slices = 10752

(** Device utilization fraction on the paper's part. *)
let utilization (e : estimate) : float =
  float_of_int e.slices /. float_of_int xc2v2000_slices

let fits (e : estimate) : bool = e.slices <= xc2v2000_slices

(* ------------------------------------------------------------------ *)
(* Power estimation (the third box of Figure 1's estimation trio)      *)
(* ------------------------------------------------------------------ *)

type power_estimate = {
  dynamic_mw : float;  (** switching power at the achieved clock *)
  static_mw : float;   (** leakage + quiescent *)
  total_mw : float;
}

(* Virtex-II (150 nm, 1.5 V) coarse coefficients: ~12 uW per active slice
   per MHz at full toggle, ~0.15 mW leakage per 100 slices plus a fixed
   ~30 mW quiescent draw for clocking resources. *)
let dynamic_uw_per_slice_mhz = 12.0
let leakage_mw_per_slice = 0.0015
let quiescent_mw = 30.0

(** First-order power model: dynamic power scales with occupied slices,
    achieved clock and the design's average toggle rate (0..1). *)
let power ?(toggle_rate = 0.25) (e : estimate) : power_estimate =
  let dynamic_mw =
    dynamic_uw_per_slice_mhz *. float_of_int e.slices *. e.clock_mhz
    *. toggle_rate /. 1000.0
  in
  let static_mw = quiescent_mw +. (leakage_mw_per_slice *. float_of_int e.slices) in
  { dynamic_mw; static_mw; total_mw = dynamic_mw +. static_mw }

let describe (e : estimate) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "area: %d slices (%d LUTs, %d FFs), clock %.1f MHz\n"
       e.slices e.luts e.flip_flops e.clock_mhz);
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf (Printf.sprintf "  %-20s %5d slices\n" name s))
    e.breakdown;
  Buffer.contents buf
