(** Data-path pipelining (paper §4.2.3): latch placement over the {!Timing}
    netlist, followed by exact min-area retiming, which re-stages the
    instructions with the fewest latch bits at the same stage count and
    clock. Every SNX gets a latch feeding its LPR, and each LPR-to-SNX
    feedback path is constrained to a single stage so the pipeline accepts
    one iteration per cycle. *)

module Instr = Roccc_vm.Instr

val default_target_ns : float
(** Default combinational budget per stage. *)

type staged_instr = {
  si : Instr.instr;
  si_node : int;  (** owning data-path node id *)
  mutable stage : int;  (** start stage of the instruction's region *)
  si_delay : float;  (** per-stage combinational delay *)
  si_stages : int;  (** stages occupied: >1 = pinned multi-stage region *)
}

type t = {
  dp : Graph.t;
  widths : Widths.t;
  timing : Timing.t;  (** the timed netlist staged over *)
  instrs : staged_instr list;  (** topological order *)
  stage_count : int;
  stage_delays : float array;  (** worst combinational path per stage *)
  clock_mhz : float;
  latch_bits : int;  (** total pipeline-register bits *)
  greedy_latch_bits : int;  (** latch bits before retiming *)
  retime_moves : int;
      (** instructions whose stage retiming changed (from the greedy
          placement, for a pipeline built by {!build}) *)
  feedback_bits : int;  (** SNX register bits *)
  target_ns : float;
  def_stage : (Instr.vreg, int) Hashtbl.t;
  instr_stage : (Instr.instr, int) Hashtbl.t;
}

val latency : t -> int
(** Number of pipeline stages. *)

val outputs_per_cycle : t -> int
(** Results produced per steady-state cycle (one iteration enters each
    cycle; equals the number of output ports). *)

val use_delay : t -> Instr.instr -> Instr.vreg -> int
(** Latch boundaries operand [r] crosses to reach instruction [i] — the
    delay-chain depth the VHDL generator materializes for this use. *)

val register_bits : t -> int
(** All pipeline flip-flop bits this staging implies: latch bits plus the
    SNX feedback registers. The area model charges registers from here. *)

val staged_regions : t -> (Instr.instr * int * int) list
(** Pinned multi-stage regions as [(instr, start_stage, stages)]. Empty
    for a purely single-cycle data path. *)

val build :
  ?target_ns:float -> ?stage_budget:int -> ?decomp:Delay.decomp ->
  ?retime:bool -> Graph.t -> Widths.t -> t
(** Stage the data path: greedy delay-chunked placement at the ASAP levels of
    the timed netlist, feedback paths collapsed to one stage, then — unless
    [~retime:false] — the {!retime} pass. Raises {!Roccc_util.Diag.Error} if a
    feedback path cannot fit a single stage. *)

val retime : t -> t
(** Exact min-area retiming: the stage assignment with the fewest latch bits
    at the same stage count and a worst stage delay no larger than the current
    one, with the {!pinned} instructions kept where they are. Solved as a
    min-cost flow ({!Flow}); the recovered stages are checked to realise the
    flow's optimum (raises {!Roccc_util.Diag.Error} otherwise). A pipeline
    that is already optimal comes back unchanged, so [retime] is idempotent. *)

val pinned : Timing.t -> bool array
(** The instructions retiming never moves, indexed by [ti_index]: LPR/SNX
    instructions, every member of a feedback path and every multi-stage
    region. *)

val exact_stages :
  Timing.t -> int array -> stage_count:int -> budget:float -> int array * int
(** [exact_stages tm stages ~stage_count ~budget] is the latch-minimal
    stage assignment (indexed by [ti_index]) over [stage_count] stages with
    every stage delay within [budget], and its latch bits as the flow's
    objective. [stages] must be feasible; the pins keep their stage from
    it. The building block of {!retime}, exposed for testing. *)

val describe : t -> string

val verify : t -> unit
(** Invariant check on a staged pipeline: every data-path instruction
    staged once within [0, stage_count), forward dataflow across stages
    (LPRs excepted), multi-stage regions inside the schedule with no
    consumer reaching into a region (producers of a staged instruction
    retire before its entry boundary; its result exists only past the exit
    register), each feedback LPR/SNX pair in a single stage, and the
    recorded latch/feedback bit totals balancing an independent
    recomputation from the stage assignment. Raises {!Roccc_util.Diag.Error}. *)
