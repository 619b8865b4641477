(** The timed netlist (paper §4.2.3 substrate): every data-path instruction
    annotated with its estimated combinational delay, producer/consumer
    edges, and ASAP/ALAP stage levels under a per-stage combinational budget
    of [target_ns] nanoseconds.

    This layer owns the timing facts shared by the back half of the
    compiler: {!Pipeline} places and retimes latches over it, the VHDL
    generator derives delay chains from the resulting stage assignment, and
    the area model charges pipeline registers from the same latch-bit
    accounting. *)

type tinstr = {
  ti : Roccc_vm.Instr.instr;
  ti_node : int;          (** owning data-path node id *)
  ti_index : int;         (** position in the topological order *)
  ti_delay : float;       (** per-stage combinational delay, ns *)
  ti_stages : int;        (** stages occupied: 1 = single-cycle, >1 = a
                              pinned multi-stage region starting at the
                              assigned stage *)
  mutable asap : int;     (** earliest delay-feasible (start) stage *)
  mutable alap : int;     (** latest stage keeping every consumer feasible *)
}

val region_span : tinstr -> int
(** Extra stage distance a producer's pinned region imposes on consumers:
    [ti_stages] for multi-stage instructions (operands latched at the
    region entry, result registered at the exit), 0 for single-cycle ones
    (consumers may chain in the same stage). *)

type t = {
  dp : Graph.t;
  widths : Widths.t;
  target_ns : float;      (** combinational budget per stage, ns *)
  instrs : tinstr list;   (** topological (level, node, program) order *)
  producer : (Roccc_vm.Instr.vreg, tinstr) Hashtbl.t;
  consumers : (Roccc_vm.Instr.vreg, tinstr list) Hashtbl.t;
  asap_stage_count : int; (** stages the ASAP schedule occupies *)
}

val worst_instr_delay_ns :
  ?stage_budget:int -> ?decomp:Delay.decomp -> Graph.t -> Widths.t -> float
(** The largest single-instruction *per-stage* combinational delay in the
    data path — a lower bound on any achievable stage delay under greedy
    chunking, computed in O(instructions) without building the netlist.
    The autotuner's cheap costing tier
    ({!Roccc_fpga.Area.quick_clock_mhz}) prices a candidate's clock from
    it. *)

val build :
  ?target_ns:float -> ?stage_budget:int -> ?decomp:Delay.decomp ->
  Graph.t -> Widths.t -> t
(** Annotate the data path: per-instruction staged delays from {!Delay}
    (constant operands detected via {!Graph.constant_values}), ASAP levels
    by greedy delay chunking — multi-stage instructions open pinned
    regions with zero mobility — and ALAP levels by the backward mirror
    within the ASAP stage count (clamped so mobility is never negative). *)

val mobility : tinstr -> int
(** [alap - asap]: the number of stages the instruction can slide without
    lengthening the schedule. 0 = on a critical chain. *)

val reg_width : t -> Roccc_vm.Instr.vreg -> int
(** Physical width of a register (inferred width, 32-bit C default for
    registers outside the analyzed set). Shared by every latch-bit count. *)

val latch_bits :
  t -> stage_of:(tinstr -> int) -> stage_count:int -> int
(** Total pipeline-register bits implied by a stage assignment: each live
    register is charged [width × boundaries-crossed] to its furthest use;
    output-port registers are carried to the final boundary. *)

val feedback_bits : t -> int
(** SNX register bits (one register per declared feedback signal). *)

val stage_delays :
  t -> stage_of:(tinstr -> int) -> stage_count:int -> float array
(** Worst combinational path per stage under a stage assignment: operands
    produced in the same stage arrive at their producer's finish time,
    earlier or external operands at the stage boundary. A multi-stage
    region charges its per-stage delay to every stage it occupies. *)

val edge_slack :
  t -> stage_of:(tinstr -> int) -> tinstr -> Roccc_vm.Instr.vreg -> int
(** Latch boundaries the value [r] crosses to reach this consumer — the
    per-edge register cost behind {!latch_bits}. *)

val feedback_paths : t -> (string * tinstr list) list
(** Per feedback signal, the instructions on its LPR-to-SNX path (forward
    reachability from the LPRs ∩ backward reachability from the SNXs, plus
    the LPRs). The pipeliner collapses each path to one stage and the
    retimer pins it. *)
