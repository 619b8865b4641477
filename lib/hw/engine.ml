(** Cycle-accurate simulator of the execution model (paper Figure 2):

    off-chip MEM -> BRAM -> smart buffer -> pipelined data path
                                         -> BRAM -> off-chip MEM

    Each input array lives in its own block RAM, scanned once by an address
    generator; smart buffers assemble sliding windows; one loop iteration
    enters the fully pipelined data path per cycle in steady state; results
    retire [latency] cycles after launch into the output BRAMs. Functional
    values come from the data-path evaluator, timing from the pipeliner.

    The engine is a steppable instance ([create] / [step] / [is_done] /
    [result]) so that several engines can be advanced in lockstep by the
    process-network simulator ([Roccc_net]): an input lane can be fed from
    a FIFO channel instead of a BRAM ([Feed_fifo]) and array outputs can
    stream into a FIFO instead of a BRAM ([Sink_fifo]), with credit-based
    backpressure (a launch is held until the channel has space for every
    in-flight iteration's results). [simulate] is the classic one-kernel
    BRAM-to-BRAM run, unchanged. *)

module K = Roccc_hir.Kernel
module Graph = Roccc_datapath.Graph
module Pipeline = Roccc_datapath.Pipeline
module Dp_eval = Roccc_datapath.Dp_eval
module Smart_buffer = Roccc_buffers.Smart_buffer
module Address_gen = Roccc_buffers.Address_gen
module Controller = Roccc_buffers.Controller
module Fifo = Roccc_buffers.Fifo

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type result = {
  cycles : int;                 (** total clock cycles until done *)
  launches : int;               (** iterations issued to the data path *)
  output_arrays : (string * int64 array) list;
  scalar_outputs : (string * int64) list;
  memory_reads : int;
  memory_writes : int;
  reuse_ratio : float;          (** naive fetches / actual fetches *)
  pipeline_latency : int;
  outputs_per_cycle : int;      (** results produced per steady-state cycle *)
  clock_mhz : float;            (** from the pipeliner's timed netlist *)
  stage_count : int;            (** pipeline stages *)
  latch_bits : int;             (** pipeline-register bits *)
  wall_time_us : float;         (** cycles at the estimated clock *)
  controller_trace : (int * string) list;  (** state transitions (cycle, state) *)
  launch_trace : (int * (string * int64) list) list;
      (** (cycle, window+scalar inputs) per launch, in cycle order *)
  retire_trace : (int * (string * int64) list) list;
      (** (cycle, data-path outputs) per retirement, in cycle order *)
}

(** Where a window input's elements come from. *)
type feed =
  | Feed_bram of int64 array   (** classic: preloaded BRAM, scanned once *)
  | Feed_fifo of Fifo.t        (** streamed from an upstream channel *)

(** Where array outputs go. *)
type sink =
  | Sink_bram                  (** classic: one BRAM per output array *)
  | Sink_fifo of Fifo.t        (** streamed to a downstream channel *)

type lane_source =
  | Src_bram of { bram : Bram.t; gen : Address_gen.input_gen }
  | Src_fifo of { fifo : Fifo.t; total : int; mutable taken : int }

type input_lane = {
  lane_window : K.window_input;
  lane_source : lane_source;
  lane_buffer : Smart_buffer.t;
}

type output_lane = {
  out_port : K.output;
  out_bram : Bram.t option;       (** None for scalar / streamed outputs *)
  out_gen : Address_gen.output_gen option;
}

type t = {
  kernel : K.t;
  eval : Dp_eval.prepared;  (** the data path, prepared once *)
  pipeline : Pipeline.t;
  luts : (string * (int64 -> int64)) list;
  latency : int;
  lanes : input_lane list;
  out_lanes : output_lane list;
  out_brams : (string * Bram.t) list ref;
  sink : sink;
  outputs_per_launch : int;       (** array elements pushed per retire *)
  scalar_out_regs : (string, int64) Hashtbl.t;
  scalar_inputs : (string * int64) list;
  total : int;
  controller : Controller.t;
  mutable feedback_prev : (string * int64) list;
  in_flight : (int * (string * int64) list) Queue.t;
      (** (retire_cycle, dp outputs) in launch order *)
  mutable cycle : int;
  mutable launches : int;
  (* the three traces are newest-first; [result] reverses them *)
  mutable trace : (int * string) list;
  mutable launch_trace : (int * (string * int64) list) list;
  mutable retire_trace : (int * (string * int64) list) list;
}

let dims_size dims = List.fold_left ( * ) 1 dims

(* Per-array loop geometry: iteration counts / strides / lower bounds with
   one entry per array dimension. Block kernels (no loop) consume the block
   in a single launch. *)
let loop_geometry (k : K.t) ~(ndims : int) =
  if k.K.loops = [] then
    ( List.init ndims (fun _ -> 1),
      List.init ndims (fun _ -> 0),
      List.init ndims (fun _ -> 0) )
  else begin
    if List.length k.K.loops <> ndims then
      errf "engine: %d loop dims but a %d-D array" (List.length k.K.loops)
        ndims;
    ( List.map (fun d -> d.K.count) k.K.loops,
      List.map (fun d -> d.K.step) k.K.loops,
      List.map (fun d -> d.K.lower) k.K.loops )
  end

let total_iterations (k : K.t) =
  if k.K.loops = [] then 1 else K.iteration_space k

(** Build a steppable engine instance. [feeds] names the element source per
    window array (default: a BRAM loaded from [arrays]); [sink] is where
    array outputs retire to. *)
let create ?(luts = []) ?(scalars = []) ?(arrays = []) ?(bus_elements = 1)
    ?(feeds = []) ?(sink = Sink_bram) (k : K.t) ~(dp : Graph.t)
    ~(pipeline : Pipeline.t) : t =
  let latency = Pipeline.latency pipeline in
  (* ---- input lanes ---- *)
  let lanes =
    List.map
      (fun (w : K.window_input) ->
        let ndims = List.length w.K.win_dims in
        let iterations, stride, lower = loop_geometry k ~ndims in
        let size = dims_size w.K.win_dims in
        let source =
          match List.assoc_opt w.K.win_array feeds with
          | Some (Feed_fifo fifo) -> Src_fifo { fifo; total = size; taken = 0 }
          | (Some (Feed_bram _) | None) as feed -> (
            let bram =
              Bram.create ~name:w.K.win_array
                ~element_bits:w.K.win_kind.Roccc_cfront.Ast.bits
                ~element_signed:w.K.win_kind.Roccc_cfront.Ast.signed ~size ()
            in
            let values =
              match feed with
              | Some (Feed_bram values) -> Some values
              | _ -> List.assoc_opt w.K.win_array arrays
            in
            (match values with
            | Some values ->
              if Array.length values <> size then
                errf "engine: array %s has %d elements, expected %d"
                  w.K.win_array (Array.length values) size;
              Bram.load bram values
            | None -> errf "engine: missing input array %s" w.K.win_array);
            let gen =
              Address_gen.create_input ~array_dims:w.K.win_dims ~bus_elements
            in
            Src_bram { bram; gen })
        in
        let buffer =
          Smart_buffer.create
            { Smart_buffer.element_bits = w.K.win_kind.Roccc_cfront.Ast.bits;
              element_signed = w.K.win_kind.Roccc_cfront.Ast.signed;
              bus_elements;
              array_dims = w.K.win_dims;
              window_offsets = w.K.win_offsets;
              stride;
              iterations;
              lower }
        in
        { lane_window = w; lane_source = source; lane_buffer = buffer })
      k.K.windows
  in
  (* ---- output lanes ---- *)
  let out_brams : (string * Bram.t) list ref = ref [] in
  let out_lanes =
    List.map
      (fun (o : K.output) ->
        match o.K.target with
        | K.Out_array { arr; kind; dims; offset } -> (
          match sink with
          | Sink_fifo _ ->
            (* streamed: retires push into the channel in port order *)
            { out_port = o; out_bram = None; out_gen = None }
          | Sink_bram ->
            let bram =
              match List.assoc_opt arr !out_brams with
              | Some b -> b
              | None ->
                let b =
                  Bram.create ~name:arr
                    ~element_bits:kind.Roccc_cfront.Ast.bits
                    ~element_signed:kind.Roccc_cfront.Ast.signed
                    ~size:(dims_size dims) ()
                in
                out_brams := !out_brams @ [ arr, b ];
                b
            in
            let ndims = List.length dims in
            let iterations, stride, lower = loop_geometry k ~ndims in
            let gen =
              Address_gen.create_output ~out_dims:dims ~iterations ~stride
                ~lower ~offset
            in
            { out_port = o; out_bram = Some bram; out_gen = Some gen })
        | K.Out_scalar _ -> { out_port = o; out_bram = None; out_gen = None })
      k.K.outputs
  in
  let out_lanes =
    match sink with
    | Sink_bram -> out_lanes
    | Sink_fifo _ ->
      (* stream order = memory order: array ports ascending by write
         offset (unrolled kernels emit one port per unrolled store) *)
      List.stable_sort
        (fun a b ->
          match a.out_port.K.target, b.out_port.K.target with
          | K.Out_array { offset = oa; _ }, K.Out_array { offset = ob; _ } ->
            compare oa ob
          | K.Out_array _, K.Out_scalar _ -> -1
          | K.Out_scalar _, K.Out_array _ -> 1
          | K.Out_scalar _, K.Out_scalar _ -> 0)
        out_lanes
  in
  let outputs_per_launch =
    List.length
      (List.filter
         (fun (o : K.output) ->
           match o.K.target with K.Out_array _ -> true | K.Out_scalar _ -> false)
         k.K.outputs)
  in
  (* ---- control ---- *)
  let total = total_iterations k in
  let controller =
    Controller.create ~total_iterations:total ~pipeline_latency:latency
  in
  Controller.start controller;
  let scalar_inputs =
    List.map
      (fun (p : Roccc_cfront.Ast.param) ->
        match List.assoc_opt p.Roccc_cfront.Ast.pname scalars with
        | Some v -> p.Roccc_cfront.Ast.pname, v
        | None ->
          errf "engine: missing scalar input %s" p.Roccc_cfront.Ast.pname)
      k.K.scalar_inputs
  in
  { kernel = k;
    eval = Dp_eval.prepare dp;
    pipeline;
    luts;
    latency;
    lanes;
    out_lanes;
    out_brams;
    sink;
    outputs_per_launch;
    scalar_out_regs = Hashtbl.create 4;
    scalar_inputs;
    total;
    controller;
    feedback_prev = [];
    in_flight = Queue.create ();
    cycle = 0;
    launches = 0;
    trace = [ 0, Controller.state_name controller.Controller.state ];
    launch_trace = [];
    retire_trace = [] }

let is_done (e : t) : bool = Controller.is_done e.controller

let lane_input_done (l : input_lane) : bool =
  match l.lane_source with
  | Src_bram { gen; _ } -> Address_gen.input_done gen
  | Src_fifo { total; taken; _ } -> taken >= total

(* Launch credit: a streamed producer may only launch when the channel can
   absorb the results of every in-flight iteration plus this one, even if
   the consumer pops nothing meanwhile. This is the backpressure rule the
   sized FIFO is proven against. *)
let has_launch_credit (e : t) : bool =
  match e.sink with
  | Sink_bram -> true
  | Sink_fifo f ->
    Fifo.space f >= (Queue.length e.in_flight + 1) * e.outputs_per_launch

(** Advance the engine by one clock cycle. *)
let step (e : t) : unit =
  if is_done e then ()
  else begin
    e.cycle <- e.cycle + 1;
    (* 1. memory reads: each BRAM lane returns last cycle's request and
       accepts a new one; each FIFO lane drains up to one bus worth of
       elements from its channel (an empty channel stalls the lane) *)
    List.iter
      (fun lane ->
        match lane.lane_source with
        | Src_bram { bram; gen } -> (
          Bram.clock bram;
          let arrived = Bram.read_port bram in
          if Array.length arrived > 0 then
            Smart_buffer.push lane.lane_buffer arrived;
          match Address_gen.next_read gen with
          | Some { Address_gen.base_address; count } ->
            Bram.request_read bram ~address:base_address ~count
          | None -> ())
        | Src_fifo src ->
          let bus = lane.lane_buffer.Smart_buffer.cfg.Smart_buffer.bus_elements in
          let want = min bus (src.total - src.taken) in
          if want > 0 then begin
            let got = ref [] in
            (try
               for _ = 1 to want do
                 match Fifo.pop src.fifo with
                 | Some v -> got := v :: !got
                 | None -> raise Exit
               done
             with Exit -> ());
            let got = List.rev !got in
            if got = [] then Fifo.note_empty_stall src.fifo
            else begin
              src.taken <- src.taken + List.length got;
              Smart_buffer.push lane.lane_buffer (Array.of_list got)
            end
          end)
      e.lanes;
    (* 2. launch an iteration when every buffer has its window and the
       output channel (if any) has credit for the results *)
    let all_ready =
      e.lanes <> []
      && List.for_all
           (fun l -> Smart_buffer.window_ready l.lane_buffer)
           e.lanes
      || (e.lanes = [] && e.launches < e.total)
    in
    if all_ready && e.launches < e.total then begin
      if not (has_launch_credit e) then
        match e.sink with
        | Sink_fifo f -> Fifo.note_full_stall f
        | Sink_bram -> ()
      else begin
        let window_inputs =
          List.concat_map
            (fun lane ->
              match Smart_buffer.pop_window lane.lane_buffer with
              | Some values ->
                List.map2
                  (fun (_, name) v -> name, v)
                  lane.lane_window.K.win_scalars (Array.to_list values)
              | None -> errf "engine: ready buffer refused to pop")
            e.lanes
        in
        let inputs = window_inputs @ e.scalar_inputs in
        let r =
          Dp_eval.run_prepared ~luts:e.luts ~feedback_prev:e.feedback_prev
            e.eval ~inputs
        in
        e.feedback_prev <- Dp_eval.thread_feedback e.feedback_prev r;
        e.launches <- e.launches + 1;
        e.launch_trace <- (e.cycle, inputs) :: e.launch_trace;
        Controller.note_launch e.controller;
        Queue.add (e.cycle + e.latency, r.Dp_eval.outputs) e.in_flight
      end
    end;
    (* 3. retire iterations whose results reach the output side *)
    while
      (not (Queue.is_empty e.in_flight))
      && fst (Queue.peek e.in_flight) <= e.cycle
    do
      let _, outputs = Queue.pop e.in_flight in
      e.retire_trace <- (e.cycle, outputs) :: e.retire_trace;
      List.iter
        (fun ol ->
          let value =
            match List.assoc_opt ol.out_port.K.port outputs with
            | Some v -> v
            | None ->
              errf "engine: data path produced no %s" ol.out_port.K.port
          in
          match ol.out_bram, ol.out_gen with
          | Some bram, Some gen -> (
            match Address_gen.next_write gen with
            | Some address -> Bram.write bram ~address value
            | None -> errf "engine: output address generator exhausted")
          | _, _ -> (
            match ol.out_port.K.target with
            | K.Out_scalar { name; _ } ->
              Hashtbl.replace e.scalar_out_regs name value
            | K.Out_array _ -> (
              match e.sink with
              | Sink_fifo f -> Fifo.push f value
              | Sink_bram -> errf "engine: array output without BRAM")))
        e.out_lanes;
      Controller.note_retire e.controller
    done;
    (* 4. controller transition *)
    let prev_state = e.controller.Controller.state in
    Controller.step e.controller
      ~window_ready:
        (e.lanes <> []
        && List.for_all
             (fun l -> Smart_buffer.window_ready l.lane_buffer)
             e.lanes)
      ~input_done:(List.for_all lane_input_done e.lanes);
    if e.controller.Controller.state <> prev_state then
      e.trace <-
        (e.cycle, Controller.state_name e.controller.Controller.state)
        :: e.trace
  end

(** Collect the run's results. Call after [is_done] (or after giving up:
    the counters are valid at any point). *)
let result (e : t) : result =
  let memory_reads =
    List.fold_left
      (fun acc l ->
        match l.lane_source with
        | Src_bram { bram; _ } -> acc + bram.Bram.reads
        | Src_fifo _ -> acc)
      0 e.lanes
  in
  let memory_writes =
    List.fold_left (fun acc (_, b) -> acc + b.Bram.writes) 0 !(e.out_brams)
  in
  let reuse =
    match e.lanes with
    | [] -> 1.0
    | _ ->
      let naive =
        List.fold_left
          (fun acc l ->
            acc + Smart_buffer.naive_fetches l.lane_buffer.Smart_buffer.cfg)
          0 e.lanes
      in
      if memory_reads = 0 then 1.0
      else float_of_int naive /. float_of_int memory_reads
  in
  { cycles = e.cycle;
    launches = e.launches;
    output_arrays =
      List.map (fun (name, b) -> name, Bram.contents b) !(e.out_brams);
    scalar_outputs =
      Hashtbl.fold (fun n v acc -> (n, v) :: acc) e.scalar_out_regs []
      |> List.sort compare;
    memory_reads;
    memory_writes;
    reuse_ratio = reuse;
    pipeline_latency = e.latency;
    outputs_per_cycle = List.length e.kernel.K.outputs;
    clock_mhz = e.pipeline.Pipeline.clock_mhz;
    stage_count = e.pipeline.Pipeline.stage_count;
    latch_bits = e.pipeline.Pipeline.latch_bits;
    wall_time_us =
      (if e.pipeline.Pipeline.clock_mhz > 0.0 then
         float_of_int e.cycle /. e.pipeline.Pipeline.clock_mhz
       else 0.0);
    controller_trace = List.rev e.trace;
    launch_trace = List.rev e.launch_trace;
    retire_trace = List.rev e.retire_trace }

(** Iterations retired so far (progress indicator for stall diagnostics). *)
let retired (e : t) : int = e.controller.Controller.retired

let total_launches (e : t) : int = e.total
let latency (e : t) : int = e.latency

(** Simulate a kernel end to end. [arrays] supplies input array contents by
    name; [scalars] the live-in scalar values; [bus_elements] the number of
    elements each memory access delivers (the paper's "bus size"). *)
let simulate ?(luts = []) ?(scalars = []) ?(arrays = []) ?(bus_elements = 1)
    ?(max_cycles = 4_000_000) (k : K.t) ~(dp : Graph.t) ~(pipeline : Pipeline.t)
    : result =
  let e = create ~luts ~scalars ~arrays ~bus_elements k ~dp ~pipeline in
  while (not (is_done e)) && e.cycle < max_cycles do
    step e
  done;
  if not (is_done e) then
    errf "engine: cycle budget exhausted after %d cycles (%d/%d retired)"
      e.cycle e.controller.Controller.retired e.total;
  result e
