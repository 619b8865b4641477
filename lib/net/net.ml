(** Process networks: chains of kernels compiled into a network of
    datapaths connected by sized FIFO channels — smart buffer feeding
    smart buffer with no round-trip through off-chip memory (after
    Alias et al., "Improving Communication Patterns in Polyhedral
    Process Networks").

    A network comes from the front end's top-level composition form

      pipeline name = stageA -> stageB -> ... ;

    Each stage is an ordinary ROCCC kernel, compiled independently
    (cached per-kernel through the service's per-pass cache and fanned
    over the domain scheduler); the network layer then

    - validates the streaming shape (1-D single-window stages, array
      outputs, matching element counts across each channel),
    - sizes each FIFO from static producer/consumer rate analysis of
      the adjacent smart-buffer access patterns,
    - co-simulates all engines cycle by cycle with FIFO backpressure
      (full -> producer stalls, empty -> consumer stalls), and
    - proves the network output equals the sequential composition of
      the per-kernel software models. *)

module Driver = Roccc_core.Driver
module Pass = Roccc_core.Pass
module Service = Roccc_service.Service
module Scheduler = Roccc_service.Scheduler
module Engine = Roccc_hw.Engine
module Fifo = Roccc_buffers.Fifo
module K = Roccc_hir.Kernel
module Lut_conv = Roccc_hir.Lut_conv
module Ast = Roccc_cfront.Ast
module Parser = Roccc_cfront.Parser
module Interp = Roccc_cfront.Interp
module Pipeline = Roccc_datapath.Pipeline
module Library = Roccc_vhdl.Library
module Proc = Roccc_vm.Proc

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Network description                                                 *)
(* ------------------------------------------------------------------ *)

(** One compiled stage with its streaming shape. *)
type stage = {
  sg_name : string;              (** kernel entry function *)
  sg_compiled : Driver.compiled;
  sg_in_array : string;          (** the window input array *)
  sg_out_array : string;         (** the (single) output array *)
  sg_elements_in : int;
  sg_elements_out : int;
  sg_rate_out : int;             (** array elements produced per launch *)
  sg_intake : int;               (** elements accepted per cycle (bus) *)
  sg_latency : int;              (** pipeline latency in cycles *)
}

(** A sized channel between stage [i] and stage [i+1]. *)
type channel = {
  ch_name : string;
  ch_elements : int;             (** total elements streamed through *)
  ch_depth : int;                (** sized FIFO depth *)
  ch_min_depth : int;            (** the rate-analysis lower bound *)
  ch_producer_rate : int;
  ch_consumer_intake : int;
  ch_producer_latency : int;
}

type t = {
  net_name : string;
  net_stages : stage list;       (** upstream first *)
  net_channels : channel list;   (** one per adjacent stage pair *)
}

(* ------------------------------------------------------------------ *)
(* Front end: the composition form                                     *)
(* ------------------------------------------------------------------ *)

(** Pipeline declarations of a source file, in order. *)
let pipelines_of_source (source : string) : Ast.pipeline_decl list =
  let program =
    try Parser.parse_program source
    with Parser.Error (msg, line, col) ->
      errf "parse error at %d:%d: %s" line col msg
  in
  program.Ast.pipelines

let find_pipeline ~(name : string) (source : string) : Ast.pipeline_decl =
  match
    List.find_opt
      (fun (pl : Ast.pipeline_decl) -> String.equal pl.Ast.pl_name name)
      (pipelines_of_source source)
  with
  | Some pl -> pl
  | None -> errf "no pipeline named %s in the source" name

(* ------------------------------------------------------------------ *)
(* Rate analysis and FIFO sizing                                       *)
(* ------------------------------------------------------------------ *)

(* Minimum safe depth for a channel. The producer's launches are gated
   by credit: a launch needs space for the results of every in-flight
   iteration plus its own, so with up to [latency] iterations in flight
   at one launch per cycle the producer runs stall-free only when the
   channel can hold (latency + 1) bursts of [rate] elements; one extra
   consumer bus worth covers the pop granularity. Anything deeper than
   the whole intermediate array is wasted registers, so the bound is
   capped at [elements] (a full double buffer of the array). *)
let min_depth ~(rate : int) ~(latency : int) ~(intake : int)
    ~(elements : int) : int =
  min elements ((rate * (latency + 1)) + intake)

(* ------------------------------------------------------------------ *)
(* Stage validation                                                    *)
(* ------------------------------------------------------------------ *)

(* The streaming shapes the network supports: a 1-D single-window kernel
   whose array outputs all land in one output array. Elements cross a
   channel in row-major order, which is exactly the order the producer's
   output address generator would have written them and the order the
   consumer's smart buffer expects them. *)
let stage_of_compiled ~(name : string) (c : Driver.compiled) : stage =
  let k = c.Driver.kernel in
  let w =
    match k.K.windows with
    | [ w ] -> w
    | [] -> errf "stage %s: a network stage needs an array input" name
    | _ -> errf "stage %s: network stages take exactly one input array" name
  in
  (match w.K.win_dims with
  | [ _ ] -> ()
  | _ -> errf "stage %s: network stages stream 1-D arrays only" name);
  (match k.K.loops with
  | [ _ ] -> ()
  | [] -> errf "stage %s: network stages need a loop" name
  | _ -> errf "stage %s: network stages are single-loop kernels" name);
  let array_outputs =
    List.filter_map
      (fun (o : K.output) ->
        match o.K.target with
        | K.Out_array { arr; dims; _ } -> Some (arr, dims)
        | K.Out_scalar _ -> None)
      k.K.outputs
  in
  let out_array, out_dims =
    match array_outputs with
    | [] -> errf "stage %s: a network stage needs an array output" name
    | (arr, dims) :: rest ->
      List.iter
        (fun (arr', _) ->
          if not (String.equal arr arr') then
            errf "stage %s: network stages write one output array (%s vs %s)"
              name arr arr')
        rest;
      arr, dims
  in
  (match out_dims with
  | [ _ ] -> ()
  | _ -> errf "stage %s: network stages stream 1-D arrays only" name);
  { sg_name = name;
    sg_compiled = c;
    sg_in_array = w.K.win_array;
    sg_out_array = out_array;
    sg_elements_in = List.fold_left ( * ) 1 w.K.win_dims;
    sg_elements_out = List.fold_left ( * ) 1 out_dims;
    sg_rate_out = List.length array_outputs;
    sg_intake = c.Driver.options.Driver.bus_elements;
    sg_latency = Pipeline.latency c.Driver.pipeline }

let link_channels (stages : stage list) : channel list =
  let rec go acc = function
    | p :: (cns :: _ as rest) ->
      if p.sg_elements_out <> cns.sg_elements_in then
        errf
          "channel %s -> %s: the producer streams %d elements but the \
           consumer expects %d"
          p.sg_name cns.sg_name p.sg_elements_out cns.sg_elements_in;
      let depth =
        min_depth ~rate:p.sg_rate_out ~latency:p.sg_latency
          ~intake:cns.sg_intake ~elements:p.sg_elements_out
      in
      let ch =
        { ch_name = Printf.sprintf "%s->%s" p.sg_name cns.sg_name;
          ch_elements = p.sg_elements_out;
          ch_depth = depth;
          ch_min_depth = depth;
          ch_producer_rate = p.sg_rate_out;
          ch_consumer_intake = cns.sg_intake;
          ch_producer_latency = p.sg_latency }
      in
      go (ch :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] stages

(* ------------------------------------------------------------------ *)
(* Planning: compile every stage, then link them                       *)
(* ------------------------------------------------------------------ *)

(* Compile one stage. With a cache the compile resumes from its cached
   mid-end states, exactly like a service compile; without one it is a
   plain driver compile. *)
let compile_stage ?cache ?config ~options ~luts ~source ~tid entry :
    Driver.compiled =
  match cache with
  | None -> Driver.compile ?config ~options ~luts ~entry source
  | Some _ ->
    let config =
      match config with Some c -> c | None -> Pass.default_config ()
    in
    let job = { Service.label = entry; source; entry; options; luts } in
    Driver.compiled_of_state (fst (Service.run_chain ?cache ~config ~tid job))

(** Build a network plan for pipeline [name] of [source]: compile every
    stage (fanned out over the domain scheduler, per-pass cached when
    [cache] is given), validate the streaming shapes and size the
    channels. [stage_options] overrides the compile options per stage
    name (e.g. to unroll only the producer). *)
let plan ?cache ?config ?(options = Driver.default_options)
    ?(stage_options = []) ?(luts = []) ?(jobs = 0) ~(name : string)
    (source : string) : t =
  let pl = find_pipeline ~name source in
  let eligible = Driver.eligible_entries source in
  List.iter
    (fun s ->
      if not (List.mem s eligible) then
        errf "pipeline %s: stage %s is not a kernel in this source" name s)
    pl.Ast.pl_stages;
  let opts_of s =
    match List.assoc_opt s stage_options with
    | Some o -> o
    | None -> options
  in
  let entries = Array.of_list pl.Ast.pl_stages in
  let compiled =
    Scheduler.parallel_map ~num_domains:jobs
      ~describe_error:Service.describe_error
      ~f:(fun ~tid entry ->
        compile_stage ?cache ?config ~options:(opts_of entry) ~luts ~source
          ~tid entry)
      entries
  in
  let stages =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Ok c -> stage_of_compiled ~name:entries.(i) c
           | Error msg -> errf "stage %s: %s" entries.(i) msg)
         compiled)
  in
  { net_name = name; net_stages = stages; net_channels = link_channels stages }

(* ------------------------------------------------------------------ *)
(* Multi-engine co-simulation                                          *)
(* ------------------------------------------------------------------ *)

type channel_stats = {
  cs_name : string;
  cs_depth : int;
  cs_min_depth : int;
  cs_high_water : int;           (** max occupancy observed *)
  cs_pushed : int;               (** total elements through the channel *)
  cs_full_stalls : int;          (** producer cycles blocked on space *)
  cs_empty_stalls : int;         (** consumer cycles blocked on data *)
}

type sim_result = {
  nr_cycles : int;               (** network cycles until the last retire *)
  nr_output_arrays : (string * int64 array) list;  (** final stage *)
  nr_scalar_outputs : (string * int64) list;       (** final stage *)
  nr_stage_results : (string * Engine.result) list;
  nr_channels : channel_stats list;
}

(** Step every engine of the network once per cycle until all are done.
    Engines are stepped downstream-first, so an element pushed into a
    channel this cycle is visible to its consumer on the next one — one
    cycle of channel latency, like the registered FIFO it models.
    [depths] overrides the sized depth per channel (for what-if and
    stress runs); a depth below the producer's burst size deadlocks and
    is rejected. *)
let simulate ?(scalars = []) ?(arrays = []) ?depths
    ?(max_cycles = 4_000_000) (net : t) : sim_result =
  let depth_of i (ch : channel) =
    match depths with
    | Some ds when i < List.length ds -> List.nth ds i
    | _ -> ch.ch_depth
  in
  let fifos =
    List.mapi
      (fun i (ch : channel) ->
        let depth = depth_of i ch in
        if depth < ch.ch_producer_rate then
          errf
            "channel %s: depth %d cannot hold one %d-element burst \
             (deadlock)"
            ch.ch_name depth ch.ch_producer_rate;
        Fifo.create ~name:ch.ch_name ~depth)
      net.net_channels
  in
  let n = List.length net.net_stages in
  let engines =
    List.mapi
      (fun i (sg : stage) ->
        let c = sg.sg_compiled in
        let luts = List.map Lut_conv.interp_binding c.Driver.luts in
        let feeds =
          if i = 0 then []
          else [ sg.sg_in_array, Engine.Feed_fifo (List.nth fifos (i - 1)) ]
        in
        let sink =
          if i = n - 1 then Engine.Sink_bram
          else Engine.Sink_fifo (List.nth fifos i)
        in
        let scalars =
          List.filter
            (fun (nm, _) ->
              List.exists
                (fun (p : Ast.param) -> String.equal p.Ast.pname nm)
                c.Driver.kernel.K.scalar_inputs)
            scalars
        in
        try
          Engine.create ~luts ~scalars ~arrays
            ~bus_elements:c.Driver.options.Driver.bus_elements ~feeds ~sink
            c.Driver.kernel ~dp:c.Driver.dp ~pipeline:c.Driver.pipeline
        with Engine.Error msg -> errf "stage %s: %s" sg.sg_name msg)
      net.net_stages
  in
  (* downstream-first stepping order *)
  let stepping = List.rev engines in
  let cycle = ref 0 in
  (try
     while
       (not (List.for_all Engine.is_done engines)) && !cycle < max_cycles
     do
       incr cycle;
       List.iter Engine.step stepping
     done
   with Engine.Error msg -> errf "network %s: %s" net.net_name msg);
  if not (List.for_all Engine.is_done engines) then begin
    let progress =
      String.concat ", "
        (List.map2
           (fun (sg : stage) e ->
             Printf.sprintf "%s %d/%d" sg.sg_name (Engine.retired e)
               (Engine.total_launches e))
           net.net_stages engines)
    in
    errf "network %s: cycle budget exhausted after %d cycles (%s)"
      net.net_name !cycle progress
  end;
  let stage_results =
    List.map2
      (fun (sg : stage) e -> sg.sg_name, Engine.result e)
      net.net_stages engines
  in
  let last = snd (List.nth stage_results (n - 1)) in
  { nr_cycles = !cycle;
    nr_output_arrays = last.Engine.output_arrays;
    nr_scalar_outputs = last.Engine.scalar_outputs;
    nr_stage_results = stage_results;
    nr_channels =
      List.map2
        (fun (ch : channel) (f : Fifo.t) ->
          { cs_name = ch.ch_name;
            cs_depth = f.Fifo.depth;
            cs_min_depth = ch.ch_min_depth;
            cs_high_water = f.Fifo.high_water;
            cs_pushed = f.Fifo.pushed;
            cs_full_stalls = f.Fifo.full_stalls;
            cs_empty_stalls = f.Fifo.empty_stalls })
        net.net_channels fifos }

(* ------------------------------------------------------------------ *)
(* Sequential composition (the software reference)                     *)
(* ------------------------------------------------------------------ *)

(** Run the kernels one after another through the C interpreter, each
    stage's output array renamed into the next stage's input array —
    the semantics the network must reproduce. Returns the last stage's
    outcome. *)
let sequential ?(scalars = []) ?(arrays = []) (net : t) : Interp.outcome =
  let rec go input = function
    | [] -> errf "network %s has no stages" net.net_name
    | [ (last : stage) ] -> Driver.interpret ~scalars ~arrays:input last.sg_compiled
    | (s : stage) :: ((next : stage) :: _ as rest) ->
      let o = Driver.interpret ~scalars ~arrays:input s.sg_compiled in
      let out =
        match List.assoc_opt s.sg_out_array o.Interp.arrays with
        | Some a -> a
        | None ->
          errf "stage %s never wrote its output array %s" s.sg_name
            s.sg_out_array
      in
      go [ next.sg_in_array, out ] rest
  in
  go arrays net.net_stages

(** Co-simulation check for the whole network: the multi-engine run's
    final output must be byte-identical to the sequential composition
    of the per-kernel software models. Returns the diff report
    ([] when equivalent). *)
let verify ?(scalars = []) ?(arrays = []) ?depths (net : t) : string list =
  let hw = simulate ~scalars ~arrays ?depths net in
  let sw = sequential ~scalars ~arrays net in
  (* newest first, reversed once at the end *)
  let diffs = ref [] in
  let diff fmt = Printf.ksprintf (fun d -> diffs := d :: !diffs) fmt in
  List.iter
    (fun (name, hw_data) ->
      match List.assoc_opt name sw.Interp.arrays with
      | Some sw_data ->
        if Array.length hw_data <> Array.length sw_data then
          diff "%s: hw has %d elements, sw %d" name (Array.length hw_data)
            (Array.length sw_data)
        else
          Array.iteri
            (fun i v ->
              if not (Int64.equal v sw_data.(i)) then
                diff "%s[%d]: hw=%Ld sw=%Ld" name i v sw_data.(i))
            hw_data
      | None -> diff "missing sw array %s" name)
    hw.nr_output_arrays;
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name sw.Interp.pointer_outputs with
      | Some sv when Int64.equal v sv -> ()
      | Some sv -> diff "%s: hw=%Ld sw=%Ld" name v sv
      | None -> diff "missing sw scalar %s" name)
    hw.nr_scalar_outputs;
  List.rev !diffs

(* ------------------------------------------------------------------ *)
(* VHDL top level                                                      *)
(* ------------------------------------------------------------------ *)

(** The network top level: every stage's Figure 2 system entity chained
    through [roccc_fifo] channel instances of the sized depths. *)
let network_vhdl (net : t) : string =
  let stages =
    List.map
      (fun (sg : stage) ->
        let c = sg.sg_compiled in
        let w = List.hd c.Driver.kernel.K.windows in
        { Library.ns_entity = c.Driver.proc.Proc.pname;
          ns_element_bits = w.K.win_kind.Ast.bits;
          ns_out_ports =
            List.filter_map
              (fun (o : K.output) ->
                match o.K.target with
                | K.Out_array _ -> Some (o.K.port, o.K.port_kind.Ast.bits)
                | K.Out_scalar _ -> None)
              c.Driver.kernel.K.outputs })
      net.net_stages
  in
  Library.network_wrapper_vhdl ~name:net.net_name ~stages
    ~fifo_depths:(List.map (fun (ch : channel) -> ch.ch_depth) net.net_channels)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The two-kernel gallery network (examples/stream.c)                  *)
(* ------------------------------------------------------------------ *)

let gallery_pipeline = "firsmooth"

(** The gallery network used by the tests, the bench, and the golden
    dump: the paper's 5-tap FIR feeding a 3-tap smoothing kernel
    (kept in sync with [examples/stream.c]). *)
let gallery_source =
  "void fir(int A[20], int C[16]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 16; i = i + 1) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n\
   \n\
   void smooth(int D[16], int E[14]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 14; i = i + 1) {\n\
  \    E[i] = (D[i] + 2*D[i+1] + D[i+2]) >> 2;\n\
  \  }\n\
   }\n\
   \n\
   pipeline firsmooth = fir -> smooth;\n"

let gallery_arrays () =
  [ "A", Array.init 20 (fun i -> Int64.of_int ((7 * i) - 40 + (i * i mod 13))) ]

let describe (net : t) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "pipeline %s = %s\n" net.net_name
    (String.concat " -> "
       (List.map (fun (s : stage) -> s.sg_name) net.net_stages));
  List.iter
    (fun (ch : channel) ->
      Printf.bprintf b
        "  fifo %-24s depth %3d (rate %d/launch, latency %d, intake \
         %d/cycle; full buffer would be %d)\n"
        ch.ch_name ch.ch_depth ch.ch_producer_rate ch.ch_producer_latency
        ch.ch_consumer_intake ch.ch_elements)
    net.net_channels;
  Buffer.contents b
