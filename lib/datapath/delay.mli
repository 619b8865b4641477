(** Combinational delay estimation per instruction (paper §4.2.3), tuned to
    a Virtex-II speed-grade-5 fabric. *)

type staged = {
  stages : int;        (** consecutive pipeline stages the op occupies *)
  per_stage_ns : float;(** combinational delay of each stage *)
}
(** A staged delay descriptor: a pinned multi-stage region. Single-cycle
    operators have [stages = 1] with [per_stage_ns] the classic estimate. *)

val total_ns : staged -> float
(** Total combinational latency across the region. *)

type decomp = Roccc_ip_wide.Wide.decomp = Csa | Addtree
(** Wide-multiplier decomposition: carry-save 3:2 compression tree, or a
    binary adder tree over the partial products. *)

val decomp_name : decomp -> string
val decomp_of_string : string -> decomp option
val all_decomps : decomp list

val default_decomp : decomp
val default_stage_budget : int
(** 0 = the decomposition's natural stage depth, uncapped. *)

val instr_delay :
  ?stage_budget:int ->
  ?decomp:decomp ->
  ?const_operands:int64 option list ->
  Roccc_vm.Instr.opcode ->
  Roccc_vm.Instr.ikind ->
  int list ->
  staged
(** Staged delay descriptor of one instruction. Narrow (<=32-bit result)
    shapes keep the single-cycle model; wide multiplies, adds and divides
    decompose into multi-stage regions via the {!Roccc_ip_wide.Wide} cost
    models, capped at [stage_budget] stages (0 = uncapped — a larger
    budget never increases the per-stage delay). [const_operands] marks
    sources carrying compile-time constants: constant multipliers become
    shift-add trees, constant shifts and masks become wiring. *)

val clock_mhz_of_stage_delay : float -> float
(** Achievable clock for a worst-stage combinational delay, including
    routing pessimism and register overhead. *)
