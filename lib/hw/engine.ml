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
    BRAM-to-BRAM run.

    Values move between the components as unboxed words, and every index
    (input port, output port, window offset, address) is resolved in
    [create], so a cycle allocates nothing: the launch inputs and the
    retired outputs are written to per-launch rows sized from the
    iteration count, and [result] turns them into traces only when they
    are forced. *)

module K = Roccc_hir.Kernel
module Graph = Roccc_datapath.Graph
module Pipeline = Roccc_datapath.Pipeline
module Dp_eval = Roccc_datapath.Dp_eval
module Smart_buffer = Roccc_buffers.Smart_buffer
module Address_gen = Roccc_buffers.Address_gen
module Controller = Roccc_buffers.Controller
module Fifo = Roccc_buffers.Fifo
module Words = Roccc_util.Words
module Diag = Roccc_util.Diag

type trace = (int * (string * int64) list) list

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
  launch_trace : trace Lazy.t;
      (** (cycle, window+scalar inputs) per launch, in cycle order *)
  retire_trace : trace Lazy.t;
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
  | Src_fifo of {
      fifo : Fifo.t;
      total : int;
      mutable taken : int;
      arrived : Words.t;  (** this cycle's elements, one bus worth *)
    }

type input_lane = {
  lane_source : lane_source;
  lane_buffer : Smart_buffer.t;
  lane_at : int;  (** column of the window's first value in a launch row *)
}

type output_lane = {
  out_port : K.output;
  out_column : int;  (** column of its port in a retire row; -1 = none *)
  out_bram : Bram.t option;       (** None for scalar / streamed outputs *)
  out_gen : Address_gen.output_gen option;
}

(* Launch [n]'s inputs are the row of [launch_rows] at word
   [n * Array.length input_names]; the data path's outputs for it are the
   row of [retire_rows] at word [n * Array.length output_names]. *)
type t = {
  kernel : K.t;
  eval : Dp_eval.prepared;  (** the data path, compiled once *)
  pipeline : Pipeline.t;
  latency : int;
  lanes : input_lane array;
  out_lanes : output_lane array;
  out_brams : (string * Bram.t) list;
  sink : sink;
  outputs_per_launch : int;       (** array elements pushed per retire *)
  total : int;
  controller : Controller.t;
  input_names : string array;     (** window values, then scalar inputs *)
  scalar_at : int;                (** column of the first scalar input *)
  scalar_values : Words.t;
  output_names : string array;    (** the data path's output ports *)
  launch_rows : Words.t;
  retire_rows : Words.t;
  launch_cycles : int array;
  retire_cycles : int array;
  mutable cycle : int;
  mutable launches : int;
  mutable trace : (int * string) list;  (** newest first *)
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
      Diag.failf "engine"
        "engine: %d loop dims but a %d-D array" (List.length k.K.loops)
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
  (* ---- input lanes: each window's values take consecutive columns of
     the launch row ---- *)
  let next_column = ref 0 in
  let lanes =
    List.map
      (fun (w : K.window_input) ->
        let ndims = List.length w.K.win_dims in
        let iterations, stride, lower = loop_geometry k ~ndims in
        let size = dims_size w.K.win_dims in
        let source =
          match List.assoc_opt w.K.win_array feeds with
          | Some (Feed_fifo fifo) ->
            Src_fifo
              { fifo;
                total = size;
                taken = 0;
                arrived = Words.create bus_elements }
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
                Diag.failf "engine"
                  "engine: array %s has %d elements, expected %d"
                  w.K.win_array (Array.length values) size;
              Bram.load bram values
            | None ->
              Diag.failf "engine"
                "engine: missing input array %s" w.K.win_array);
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
        let at = !next_column in
        next_column := at + List.length w.K.win_scalars;
        { lane_source = source; lane_buffer = buffer; lane_at = at })
      k.K.windows
  in
  let scalar_values =
    List.map
      (fun (p : Roccc_cfront.Ast.param) ->
        match List.assoc_opt p.Roccc_cfront.Ast.pname scalars with
        | Some v -> v
        | None ->
          Diag.failf "engine"
            "engine: missing scalar input %s" p.Roccc_cfront.Ast.pname)
      k.K.scalar_inputs
  in
  let input_names =
    Array.of_list
      (List.concat_map
         (fun (w : K.window_input) -> List.map snd w.K.win_scalars)
         k.K.windows
      @ List.map (fun (p : Roccc_cfront.Ast.param) -> p.Roccc_cfront.Ast.pname)
          k.K.scalar_inputs)
  in
  let eval = Dp_eval.prepare ~luts ~columns:input_names dp in
  let output_names = Dp_eval.outputs eval in
  let column_of port =
    Option.value (Array.find_index (String.equal port) output_names)
      ~default:(-1)
  in
  (* ---- output lanes ---- *)
  let out_brams : (string * Bram.t) list ref = ref [] in
  let out_lanes =
    List.map
      (fun (o : K.output) ->
        let lane bram gen =
          { out_port = o; out_column = column_of o.K.port; out_bram = bram;
            out_gen = gen }
        in
        match o.K.target with
        | K.Out_array { arr; kind; dims; offset } -> (
          match sink with
          | Sink_fifo _ ->
            (* streamed: retires push into the channel in port order *)
            lane None None
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
            lane (Some bram) (Some gen))
        | K.Out_scalar _ -> lane None None)
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
  { kernel = k;
    eval;
    pipeline;
    latency;
    lanes = Array.of_list lanes;
    out_lanes = Array.of_list out_lanes;
    out_brams = !out_brams;
    sink;
    outputs_per_launch;
    total;
    controller;
    input_names;
    scalar_at = !next_column;
    scalar_values = Words.of_array (Array.of_list scalar_values);
    output_names;
    launch_rows = Words.create (total * Array.length input_names);
    retire_rows = Words.create (total * Array.length output_names);
    launch_cycles = Array.make total 0;
    retire_cycles = Array.make total 0;
    cycle = 0;
    launches = 0;
    trace = [ 0, Controller.state_name controller.Controller.state ] }

let is_done (e : t) : bool = Controller.is_done e.controller

(** Iterations retired so far (progress indicator for stall diagnostics). *)
let retired (e : t) : int = e.controller.Controller.retired

(* 1. memory reads: a BRAM lane returns last cycle's request and accepts
   a new one; a FIFO lane drains up to one bus worth of elements from its
   channel (an empty channel stalls the lane) *)
let read_lane (lane : input_lane) : unit =
  match lane.lane_source with
  | Src_bram { bram; gen } ->
    Bram.clock bram;
    if bram.Bram.read_count > 0 then
      Smart_buffer.push lane.lane_buffer bram.Bram.read_out
        bram.Bram.read_count;
    let address = Address_gen.issued gen in
    let count = Address_gen.next_read gen in
    if count > 0 then Bram.request_read bram ~address ~count
  | Src_fifo src ->
    let bus =
      (Smart_buffer.config lane.lane_buffer).Smart_buffer.bus_elements
    in
    let want = min bus (src.total - src.taken) in
    if want > 0 then begin
      let got = ref 0 in
      while !got < want && Fifo.pop src.fifo src.arrived !got do
        incr got
      done;
      if !got = 0 then Fifo.note_empty_stall src.fifo
      else begin
        src.taken <- src.taken + !got;
        Smart_buffer.push lane.lane_buffer src.arrived !got
      end
    end

let windows_ready (e : t) : bool =
  let ready = ref true in
  for i = 0 to Array.length e.lanes - 1 do
    if not (Smart_buffer.window_ready e.lanes.(i).lane_buffer) then
      ready := false
  done;
  !ready

(* Launch credit: a streamed producer may only launch when the channel can
   absorb the results of every in-flight iteration plus this one, even if
   the consumer pops nothing meanwhile. This is the backpressure rule the
   sized FIFO is proven against. *)
let has_launch_credit (e : t) : bool =
  match e.sink with
  | Sink_bram -> true
  | Sink_fifo f ->
    Fifo.space f >= (e.launches - retired e + 1) * e.outputs_per_launch

(* 2. issue iteration [e.launches]: its windows and the scalar inputs
   fill its launch row, and the data path writes its retire row *)
let launch (e : t) : unit =
  let n = e.launches in
  let row = n * Array.length e.input_names in
  for i = 0 to Array.length e.lanes - 1 do
    let lane = e.lanes.(i) in
    if
      not
        (Smart_buffer.pop_window lane.lane_buffer e.launch_rows
           (row + lane.lane_at))
    then Diag.failf "engine" "engine: ready buffer refused to pop"
  done;
  for j = 0 to Bigarray.Array1.dim e.scalar_values - 1 do
    e.launch_rows.{row + e.scalar_at + j} <- e.scalar_values.{j}
  done;
  Dp_eval.launch e.eval e.launch_rows row e.retire_rows
    (n * Array.length e.output_names);
  e.launch_cycles.(n) <- e.cycle;
  e.launches <- n + 1;
  Controller.note_launch e.controller

(* 3. retire iteration [retired e]: its results reach the output side *)
let retire (e : t) : unit =
  let n = retired e in
  e.retire_cycles.(n) <- e.cycle;
  let row = n * Array.length e.output_names in
  for i = 0 to Array.length e.out_lanes - 1 do
    let ol = e.out_lanes.(i) in
    if ol.out_column < 0 then
      Diag.failf "engine" "engine: data path produced no %s" ol.out_port.K.port;
    let at = row + ol.out_column in
    match ol.out_bram, ol.out_gen with
    | Some bram, Some gen ->
      let address = Address_gen.next_write gen in
      if address < 0 then
        Diag.failf "engine" "engine: output address generator exhausted";
      Bram.write bram ~address e.retire_rows at
    | _, _ -> (
      match ol.out_port.K.target with
      | K.Out_scalar _ -> ()  (* read from the last retire row by [result] *)
      | K.Out_array _ -> (
        match e.sink with
        | Sink_fifo f -> Fifo.push f e.retire_rows at
        | Sink_bram -> Diag.failf "engine" "engine: array output without BRAM"))
  done;
  Controller.note_retire e.controller

(** Advance the engine by one clock cycle. *)
let step (e : t) : unit =
  if not (is_done e) then begin
    e.cycle <- e.cycle + 1;
    for i = 0 to Array.length e.lanes - 1 do
      read_lane e.lanes.(i)
    done;
    (* launch an iteration when every buffer has its window and the
       output channel (if any) has credit for the results *)
    if e.launches < e.total && windows_ready e then begin
      if has_launch_credit e then launch e
      else
        match e.sink with
        | Sink_fifo f -> Fifo.note_full_stall f
        | Sink_bram -> ()
    end;
    while
      retired e < e.launches
      && e.launch_cycles.(retired e) + e.latency <= e.cycle
    do
      retire e
    done;
    (* 4. controller transition *)
    let prev_state = e.controller.Controller.state in
    Controller.step e.controller;
    if e.controller.Controller.state <> prev_state then
      e.trace <-
        (e.cycle, Controller.state_name e.controller.Controller.state)
        :: e.trace
  end

(* The first [count] rows of [rows], [names] wide, each with its cycle. *)
let rows_trace (rows : Words.t) (names : string array) (cycles : int array)
    (count : int) : trace Lazy.t =
  let width = Array.length names in
  lazy
    (List.init count (fun n ->
         ( cycles.(n),
           List.init width (fun j -> names.(j), rows.{(n * width) + j}) )))

(** Collect the run's results. Call after [is_done] (or after giving up:
    the counters are valid at any point). *)
let result (e : t) : result =
  let memory_reads =
    Array.fold_left
      (fun acc l ->
        match l.lane_source with
        | Src_bram { bram; _ } -> acc + bram.Bram.reads
        | Src_fifo _ -> acc)
      0 e.lanes
  in
  let memory_writes =
    List.fold_left (fun acc (_, b) -> acc + b.Bram.writes) 0 e.out_brams
  in
  let reuse =
    if Array.length e.lanes = 0 || memory_reads = 0 then 1.0
    else
      let naive =
        Array.fold_left
          (fun acc l ->
            acc
            + Smart_buffer.naive_fetches (Smart_buffer.config l.lane_buffer))
          0 e.lanes
      in
      float_of_int naive /. float_of_int memory_reads
  in
  (* a pointer output holds the last retired value; of two lanes writing
     one pointer, the later lane wins *)
  let scalar_outputs =
    let last = retired e - 1 in
    if last < 0 then []
    else begin
      let regs = Hashtbl.create 4 in
      Array.iter
        (fun ol ->
          match ol.out_port.K.target with
          | K.Out_scalar { name; _ } ->
            Hashtbl.replace regs name
              e.retire_rows.{(last * Array.length e.output_names)
                             + ol.out_column}
          | K.Out_array _ -> ())
        e.out_lanes;
      List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) regs [])
    end
  in
  { cycles = e.cycle;
    launches = e.launches;
    output_arrays =
      List.map (fun (name, b) -> name, Bram.contents b) e.out_brams;
    scalar_outputs;
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
    launch_trace =
      rows_trace e.launch_rows e.input_names e.launch_cycles e.launches;
    retire_trace =
      rows_trace e.retire_rows e.output_names e.retire_cycles (retired e) }

let total_launches (e : t) : int = e.total

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
    Diag.failf "engine"
      "engine: cycle budget exhausted after %d cycles (%d/%d retired)"
      e.cycle (retired e) e.total;
  result e
