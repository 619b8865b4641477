(** Combinational delay estimation per instruction (paper §4.2.3: "The latch
    location in a node is decided based on the delay estimation of
    instructions"). The model is calibrated to a Virtex-II speed-grade-5
    fabric: a 4-input LUT + local routing is ~1 ns; carry chains add ~0.05 ns
    per bit; LUT-style multipliers cost roughly one LUT level per partial
    product row. *)

module Instr = Roccc_vm.Instr

module Wide = Roccc_ip_wide.Wide

(** One LUT level including local routing, in nanoseconds. *)
let lut_level_ns = 0.9

(** Incremental carry-chain delay per bit, in nanoseconds. *)
let carry_per_bit_ns = 0.045

(** Flip-flop clock-to-out plus setup, charged once per pipeline stage. *)
let register_overhead_ns = 1.1

(* Width of the widest source operand, falling back to the result kind. *)
let operand_width (kind : Instr.ikind) (src_widths : int list) : int =
  match src_widths with
  | [] -> kind.Roccc_cfront.Ast.bits
  | ws -> List.fold_left max 1 ws

let popcount64 (v : int64) : int =
  let rec loop v acc =
    if Int64.equal v 0L then acc
    else
      loop (Int64.shift_right_logical v 1)
        (acc + Int64.to_int (Int64.logand v 1L))
  in
  loop (Int64.abs v) 0

(* Single-cycle combinational estimate — the model every opcode used
   before the multi-stage refactor, still exact for all narrow shapes. *)
let single_cycle_delay_ns ?(const_operands : int64 option list = [])
    (op : Instr.opcode) (kind : Instr.ikind) (src_widths : int list) : float =
  let w = operand_width kind src_widths in
  let const_of n = List.nth_opt const_operands n |> Option.join in
  match op with
  | Instr.Add | Instr.Sub ->
    (* ripple-carry adder on the dedicated carry chain *)
    lut_level_ns +. (carry_per_bit_ns *. float_of_int w)
  | Instr.Neg -> lut_level_ns +. (carry_per_bit_ns *. float_of_int w)
  | Instr.Mul -> (
    match const_of 0, const_of 1 with
    | Some c, _ | _, Some c ->
      (* shift-add tree: depth log2(set bits) adder levels *)
      let terms = max 1 (popcount64 c) in
      let depth = max 1 (Roccc_util.Bits.clog2 terms) in
      float_of_int depth
      *. (lut_level_ns +. (carry_per_bit_ns *. float_of_int w))
    | None, None ->
      (* LUT-based array multiplier: ~one LUT level per two partial-product
         rows after the first, bounded below by two levels *)
      let rows = float_of_int (max 2 (w / 2)) in
      lut_level_ns *. (1.0 +. (rows /. 2.0)))
  | Instr.Div | Instr.Rem -> (
    match const_of 1 with
    | Some c
      when Int64.compare c 0L > 0 && Int64.equal (Int64.logand c (Int64.sub c 1L)) 0L ->
      (* power-of-two divisor: shift plus a rounding correction adder *)
      lut_level_ns +. (carry_per_bit_ns *. float_of_int w)
    | _ ->
      (* iterative array divider: one subtract per quotient bit *)
      float_of_int w
      *. (lut_level_ns +. (carry_per_bit_ns *. float_of_int w))
      /. 2.0)
  | Instr.Shl | Instr.Shr -> (
    match const_of 1 with
    | Some _ -> 0.0  (* constant shift is wiring *)
    | None ->
      (* barrel shifter: log2(w) mux levels *)
      lut_level_ns *. float_of_int (max 1 (Roccc_util.Bits.clog2 (max 2 w))))
  | Instr.Band | Instr.Bor | Instr.Bxor -> (
    match const_of 0, const_of 1 with
    | Some _, _ | _, Some _ -> 0.0  (* constant mask is wiring *)
    | None, None -> lut_level_ns)
  | Instr.Bnot -> lut_level_ns
  | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge ->
    lut_level_ns +. (carry_per_bit_ns *. float_of_int w)
  | Instr.Seq | Instr.Sne ->
    (* XOR reduce tree *)
    lut_level_ns *. float_of_int (max 1 (Roccc_util.Bits.clog2 (max 2 w)))
  | Instr.Land | Instr.Lor | Instr.Lnot -> lut_level_ns
  | Instr.Mov -> 0.0       (* plain wire *)
  | Instr.Cvt -> 0.0       (* wiring / sign-extension *)
  | Instr.Ldc _ -> 0.0     (* constant wiring *)
  | Instr.Mux -> lut_level_ns
  | Instr.Lpr _ -> 0.0     (* register read *)
  | Instr.Snx _ -> 0.0     (* register write (setup charged per stage) *)
  | Instr.Lut _ ->
    (* block-RAM/ROM access time *)
    2.5

(* ------------------------------------------------------------------ *)
(* Multi-stage operators                                               *)
(* ------------------------------------------------------------------ *)

(** A staged delay descriptor: the instruction occupies [stages]
    consecutive pipeline stages as one pinned region, each stage
    [per_stage_ns] of combinational logic. Single-cycle operators have
    [stages = 1] and [per_stage_ns] equal to the classic estimate. *)
type staged = {
  stages : int;
  per_stage_ns : float;
}

(** Total combinational latency across the region. *)
let total_ns (d : staged) : float = float_of_int d.stages *. d.per_stage_ns

(** Decomposition choice for wide multipliers (re-exported from the wide
    operator library so the option/tune layers need only this module). *)
type decomp = Wide.decomp = Csa | Addtree

let decomp_name = Wide.decomp_name
let decomp_of_string = Wide.decomp_of_string
let all_decomps = Wide.all_decomps

(** Default decomposition and stage budget (0 = the decomposition's
    natural depth, uncapped). *)
let default_decomp : decomp = Csa
let default_stage_budget = 0

(* An operator is wide when its result carry structure exceeds the 32-bit
   single-cycle granule. The result width matters, not just the operands:
   a 31x31 multiply feeding a 64-bit kind still builds a 62-bit product.
   Every pre-refactor kernel has kind.bits <= 32, so nothing narrow ever
   stages. *)
let result_width (op : Instr.opcode) (kind : Instr.ikind)
    (src_widths : int list) : int =
  let w = operand_width kind src_widths in
  let kb = kind.Roccc_cfront.Ast.bits in
  match op with
  | Instr.Mul -> (
    match src_widths with
    | [ a; b ] -> min kb (a + b)
    | _ -> min kb (2 * w))
  | Instr.Add | Instr.Sub | Instr.Neg -> min kb (w + 1)
  | _ -> w

let clamp_budget (budget : int) ((stages, total) : int * float) : staged =
  let stages = if budget > 0 then min stages budget else stages in
  let stages = max 1 stages in
  { stages; per_stage_ns = total /. float_of_int stages }

(** Staged delay descriptor of one instruction. Narrow shapes keep the
    classic single-cycle estimate; wide (>32-bit result) multiplies,
    adds/subtracts and divides decompose into pinned multi-stage regions
    using the {!Roccc_ip_wide.Wide} cost models, capped at [stage_budget]
    stages (0 = uncapped; capping never lowers the total delay, it only
    concentrates it, so more stages never increase the per-stage delay). *)
let instr_delay ?(stage_budget = default_stage_budget)
    ?(decomp = default_decomp) ?(const_operands : int64 option list = [])
    (op : Instr.opcode) (kind : Instr.ikind) (src_widths : int list) : staged =
  let const_of n = List.nth_opt const_operands n |> Option.join in
  let rw = result_width op kind src_widths in
  let w = operand_width kind src_widths in
  let wide = rw > 32 in
  let cost =
    if not wide then None
    else
      match op with
      | Instr.Mul -> (
        match const_of 0, const_of 1 with
        | Some c, _ | _, Some c ->
          let terms = max 1 (popcount64 c) in
          if terms = 1 then None (* a single shifted term is wiring *)
          else
            Some
              (Wide.const_mul_cost ~lut_ns:lut_level_ns
                 ~carry_ns:carry_per_bit_ns ~width:rw ~terms)
        | None, None ->
          Some
            (Wide.mul_cost decomp ~lut_ns:lut_level_ns
               ~carry_ns:carry_per_bit_ns ~width:rw))
      | Instr.Add | Instr.Sub ->
        Some
          (Wide.add_cost ~lut_ns:lut_level_ns ~carry_ns:carry_per_bit_ns
             ~width:rw)
      | Instr.Div | Instr.Rem -> (
        match const_of 1 with
        | Some c
          when Int64.compare c 0L > 0
               && Int64.equal (Int64.logand c (Int64.sub c 1L)) 0L ->
          None (* power-of-two divisor stays a shift + correction adder *)
        | _ ->
          Some
            (Wide.div_cost ~lut_ns:lut_level_ns ~carry_ns:carry_per_bit_ns
               ~width:w))
      | _ -> None
  in
  match cost with
  | Some c -> clamp_budget stage_budget c
  | None ->
    { stages = 1;
      per_stage_ns = single_cycle_delay_ns ~const_operands op kind src_widths }

(** Achievable clock for a given worst-stage combinational delay, with a
    routing pessimism factor (global routing roughly doubles logic delay on
    a real device). *)
let routing_factor = 1.55

let clock_mhz_of_stage_delay (worst_ns : float) : float =
  let period = (worst_ns *. routing_factor) +. register_overhead_ns in
  1000.0 /. period
