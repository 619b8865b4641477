(** Cycle-accurate simulator of the execution model (paper Figure 2):
    off-chip MEM → BRAM → smart buffer → pipelined data path → BRAM.
    Functional values come from the data-path evaluator, timing from the
    pipeliner; the controller FSM sequences fill / steady / drain. Values
    move as unboxed words and every index is resolved when the engine is
    built, so a simulated cycle allocates nothing. *)

exception Error of string

type trace = (int * (string * int64) list) list

type result = {
  cycles : int;  (** clock cycles until the controller reaches done *)
  launches : int;  (** iterations issued to the data path *)
  output_arrays : (string * int64 array) list;
  scalar_outputs : (string * int64) list;
  memory_reads : int;  (** elements read from input BRAMs (once each) *)
  memory_writes : int;
  reuse_ratio : float;  (** naive window fetches / actual fetches *)
  pipeline_latency : int;
  outputs_per_cycle : int;  (** results per steady-state cycle *)
  clock_mhz : float;  (** from the pipeliner's timed netlist *)
  stage_count : int;  (** pipeline stages *)
  latch_bits : int;  (** pipeline-register bits *)
  wall_time_us : float;  (** cycles at the estimated clock *)
  controller_trace : (int * string) list;
      (** controller state transitions as (cycle, state-name), in cycle
          order *)
  launch_trace : trace Lazy.t;
      (** (cycle, window+scalar inputs) per launch, in cycle order (one
          launch per cycle at most, so the cycles strictly increase);
          stored unboxed during the run and built when forced *)
  retire_trace : trace Lazy.t;
      (** (cycle, data-path outputs) per retirement, in cycle order;
          built when forced *)
}

(** Where a window input's elements come from. *)
type feed =
  | Feed_bram of int64 array
      (** classic: a preloaded BRAM scanned once by an address generator *)
  | Feed_fifo of Roccc_buffers.Fifo.t
      (** streamed from an upstream channel (process networks) *)

(** Where array outputs retire to. *)
type sink =
  | Sink_bram  (** classic: one BRAM per output array *)
  | Sink_fifo of Roccc_buffers.Fifo.t
      (** streamed to a downstream channel, in write-offset order *)

type t
(** A steppable engine instance: several can be advanced in lockstep by
    the process-network simulator. *)

val create :
  ?luts:(string * (int64 -> int64)) list ->
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  ?bus_elements:int ->
  ?feeds:(string * feed) list ->
  ?sink:sink ->
  Roccc_hir.Kernel.t ->
  dp:Roccc_datapath.Graph.t ->
  pipeline:Roccc_datapath.Pipeline.t ->
  t
(** Build an engine without running it. [feeds] selects the element
    source per window array (default: a BRAM loaded from [arrays]);
    [sink] is where array outputs retire. Raises {!Error} on missing
    inputs. *)

val step : t -> unit
(** Advance the engine by one clock cycle (a no-op once done). A FIFO-fed
    lane that finds its channel empty stalls (counted on the channel); a
    FIFO-sinked engine launches only with credit — space for the results
    of every in-flight iteration plus the new one — and otherwise records
    a full-stall on the channel. *)

val is_done : t -> bool

val result : t -> result
(** Collect counters and outputs (valid at any point of the run). *)

val retired : t -> int
(** Iterations retired so far (progress indicator for stall diagnostics). *)

val total_launches : t -> int
(** Iterations the kernel needs in total. *)

val latency : t -> int

val simulate :
  ?luts:(string * (int64 -> int64)) list ->
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  ?bus_elements:int ->
  ?max_cycles:int ->
  Roccc_hir.Kernel.t ->
  dp:Roccc_datapath.Graph.t ->
  pipeline:Roccc_datapath.Pipeline.t ->
  result
(** Simulate a compiled kernel end to end. [arrays] supplies the input
    array contents by name (loaded into per-array BRAMs before the circuit
    starts); [scalars] the live-in scalar parameters; [bus_elements] the
    memory bus width (the paper's "bus size"). One iteration enters the
    pipeline per cycle once its windows are buffered; results retire
    [pipeline latency] cycles later. Raises {!Error} on missing inputs or
    if the cycle budget is exhausted. *)
