(* The five workloads and the metrics they report.

   Every workload sets up several times and reports the median set-up
   time (each set-up includes one untimed warm-up op), then runs ops back
   to back for the requested wall-clock time, then checks every op's
   output. Ops are timed individually; correctness checks that need more
   than a comparison run after the measured window, so they never count
   in an op's latency.

   In a traced run, every other op (where ops go in rounds, every other
   round) is traced: the traced ones give the per-layer self times, and
   the ratio of the two halves' medians is the tracing overhead. *)

module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Pass = Roccc_core.Pass
module Engine = Roccc_hw.Engine
module Interp = Roccc_cfront.Interp
module Net = Roccc_net.Net
module Search = Roccc_tune.Search
module Objective = Roccc_tune.Objective
module Json = Roccc_service.Json
module Trace = Roccc_service.Trace
module Pipeline = Roccc_datapath.Pipeline
module Area = Roccc_fpga.Area

let now = Unix.gettimeofday

type config = {
  seed : int;
  seconds : float;
  roccc : string;  (** the roccc CLI binary serve-mixed starts *)
  out_dir : string;  (** working files: sockets, caches, trace files *)
}

type design = { slices : int; clock_mhz : float; latch_bits : int }

(* The measured window: op slots with a host speed probe before each. *)
type window = {
  start : float;
  stop : float;
  probes : (float * float) list;  (** (time, probe ms) *)
  slots : (float * float) list;  (** (start, stop) of the op time between probes *)
  alloc_bytes : float;  (** allocated by this process during the window *)
  major_gcs : int;
}

type outcome = {
  attempted : int;
  failed : int;
  verified : bool;  (** the end-of-run checks passed *)
  ops : (float * float) list;  (** (start, duration) of every op, seconds *)
  window : window;
  setups : (float * float) list;  (** set-up time and the host slowdown around it *)
  rss_mb : float;
  designs : design list;  (** the circuits the workload produced *)
  counters : (string * float) list;  (** workload-specific per-layer values *)
  spans : Spans.t option;
  traced_s : float list;  (** durations of the traced ops, at reference host speed *)
  untraced_s : float list;
  notes : string list;  (** human-readable lines for the report *)
}

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

let vm_hwm_mb (pid : string) : float =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* Run [setup] [n] times, keeping the last state; earlier states are
   released with [discard]. Each set-up time is paired with the host
   slowdown probed just before and just after it, while nothing of ours
   is running. *)
let repeated_setup ?(n = 5) ?(discard = ignore) (setup : unit -> 's) :
    's * (float * float) list =
  let rec go k times =
    let before = Host.probe_ms () in
    let t0 = now () in
    let s = setup () in
    let dt = now () -. t0 in
    let slowdown = (before +. Host.probe_ms ()) /. 2.0 /. Host.reference_ms in
    let times = (dt, slowdown) :: times in
    if k = 1 then s, List.rev times
    else begin
      discard s;
      Gc.compact ();
      go (k - 1) times
    end
  in
  go n []

type 'r record = {
  index : int;
  start : float;
  dur : float;
  traced : bool;
  result : ('r, string) result;
}

let workload_span_id = 0
let slot_s = 0.25

(* Run [run_slot ~deadline ~last] over [cfg.seconds], in slots of [slot_s]
   with a host speed probe before each; [last] marks the slot that ends
   the window, which always runs, even when the one before overran the
   window's end. *)
let measure (cfg : config) (run_slot : deadline:float -> last:bool -> unit) : window =
  Gc.compact ();
  let alloc0 = Gc.allocated_bytes () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now () in
  let stop = start +. cfg.seconds in
  let probes = ref [] and slots = ref [] and ended = ref false in
  while not !ended do
    let p0 = now () in
    let p = Host.probe_ms () in
    let s0 = now () in
    probes := ((p0 +. s0) /. 2.0, p) :: !probes;
    ended := s0 +. slot_s >= stop;
    run_slot ~deadline:(Float.min stop (s0 +. slot_s)) ~last:!ended;
    slots := (s0, now ()) :: !slots
  done;
  { start; stop = now (); probes = List.rev !probes; slots = List.rev !slots;
    alloc_bytes = Gc.allocated_bytes () -. alloc0;
    major_gcs = (Gc.quick_stat ()).Gc.major_collections - major0 }

(* Run ops back to back through the window. [op] is timed; [digest]
   reduces its result to what the end-of-run checks need, untimed. A
   failing op is recorded, not fatal: ops are independent. Peak memory
   is read once op [rss_at] is done (or at the end of a shorter run), so
   it does not depend on how many ops the window held. Where ops go in
   rounds of [round] different items, the window closes on a whole
   round, so every item counts equally in the throughput. *)
let serial ?(round = 1) (cfg : config) (rc : Spans.t option) ~(rss_at : int)
    (op : Spans.ctx option -> int -> 'a) (digest : 'a -> 'r) : 'r record list * window * float =
  let acc = ref [] and i = ref 0 and rss = ref None in
  let protect f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let run_slot ~deadline ~last =
    while now () < deadline || (last && !i mod round <> 0) do
      (* whole rounds, so both halves hold the same mix of items *)
      let traced = rc <> None && !i / round mod 2 = 0 in
      let t0 = now () in
      let raw =
        protect (fun () ->
            match rc with
            | Some rc when traced ->
              Spans.op_span rc ~workload:workload_span_id ~op:!i (fun c -> op (Some c) !i)
            | _ -> op None !i)
      in
      let dur = now () -. t0 in
      let result = Result.bind raw (fun r -> protect (fun () -> digest r)) in
      acc := { index = !i; start = t0; dur; traced; result } :: !acc;
      if !i = rss_at then rss := Some (vm_hwm_mb "self");
      incr i
    done
  in
  let w = measure cfg run_slot in
  List.rev !acc, w, (match !rss with Some r -> r | None -> vm_hwm_mb "self")

let record_workload_span (rc : Spans.t option) (w : window) =
  Option.iter
    (fun rc ->
      Trace.add_span rc.Spans.trace ~cat:"workload" ~tid:0 ~name:"workload"
        ~start_s:w.start ~dur_s:(w.stop -. w.start)
        ~args:[ "op", Trace.Int (-1); "id", Trace.Int workload_span_id;
                "parent", Trace.Int (-1); "layer", Trace.Str "harness" ]
        ())
    rc

let outcome_of ~records ~window ~setups ~rss ~failed ~verified ~designs ~counters ~spans
    ~notes =
  (* at reference host speed, so that the host's drift between traced and
     untraced ops does not show as tracing overhead *)
  let durations traced =
    List.filter_map
      (fun r ->
        if r.traced = traced then Some (r.dur /. Host.slowdown window.probes (r.start +. (r.dur /. 2.0)))
        else None)
      records
  in
  { attempted = List.length records; failed; verified;
    ops = List.map (fun r -> r.start, r.dur) records; window; setups; rss_mb = rss; designs;
    counters; spans; traced_s = durations true; untraced_s = durations false; notes }

let design_of (c : Driver.compiled) : design =
  { slices = c.Driver.area.Area.slices; clock_mhz = c.Driver.area.Area.clock_mhz;
    latch_bits = c.Driver.pipeline.Pipeline.latch_bits }

(* What an op's compile produced, reduced to values that must repeat
   exactly on every compile of the same input. *)
type summary = {
  s_design : design;
  s_operator_slices : int;
  s_greedy_bits : int;
  s_moves : int;
  s_stages : int;
  s_vhdl_hash : int;
}

let summarize (c : Driver.compiled) : summary =
  { s_design = design_of c;
    s_operator_slices = c.Driver.area.Area.operator_slices;
    s_greedy_bits = c.Driver.pipeline.Pipeline.greedy_latch_bits;
    s_moves = c.Driver.pipeline.Pipeline.retime_moves;
    s_stages = c.Driver.pipeline.Pipeline.stage_count;
    s_vhdl_hash = Hashtbl.hash_param 10_000 1_000_000 c.Driver.design }

(* Retiming counters over a set of compiled designs. *)
let datapath_counters (cs : Driver.compiled list) : (string * float) list =
  let sum f = float_of_int (List.fold_left (fun a c -> a + f c.Driver.pipeline) 0 cs) in
  let n = float_of_int (max 1 (List.length cs)) in
  let greedy = sum (fun p -> p.Pipeline.greedy_latch_bits) in
  [ "datapath.retime_moves", sum (fun p -> p.Pipeline.retime_moves) /. n;
    "datapath.greedy_latch_bits", greedy /. n;
    ( "datapath.retime_saved_ratio",
      if greedy > 0.0 then 1.0 -. (sum (fun p -> p.Pipeline.latch_bits) /. greedy)
      else 0.0 ) ]

(* One compile through the driver's three public stages, each stage a
   span, each pass a span from the [instrument] hook. *)
let compile ctx ~name ~options ~luts ~entry source : Driver.compiled =
  Spans.span ctx ~layer:"core" ~name:("compile:" ^ name) (fun ctx ->
      let stage sname f = Spans.span ctx ~layer:"core" ~name:sname (fun c -> f (Spans.instrument c)) in
      let fr =
        stage "core.front_end" (fun instrument ->
            Driver.front_end ?instrument ~options ~luts ~entry source)
      in
      let sk = stage "core.lower_to_kernel" (fun instrument -> Driver.lower_to_kernel ?instrument fr) in
      stage "core.back_end" (fun instrument -> Driver.back_end ?instrument ~options sk))

(* Where one op is one of [n] items of very different cost, ops visit the
   items in rounds, each round in an order drawn from the seed, so that
   every item makes up an equal share of the ops: the median and the 90th
   percentile fall inside one item's share, not on the edge between two. *)
let in_rounds (seed : int) (n : int) (i : int) : int =
  (Gen.shuffle (Gen.rng seed [ 9; i / n ]) (Array.init n Fun.id)).(i mod n)

let count_failed (records : 'r record list) (ok : int -> 'r -> bool) : int =
  List.length
    (List.filter
       (fun r -> match r.result with Ok v -> not (ok r.index v) | Error _ -> true)
       records)

(* ------------------------------------------------------------------ *)
(* table1-cold: the paper's own kernels, one cold compile round per op  *)
(* ------------------------------------------------------------------ *)

let table1_cold (cfg : config) (rc : Spans.t option) : outcome =
  let kernels = Array.of_list Table1.kernels in
  let round ctx r =
    Array.to_list
      (Array.map
         (fun k ->
           let b = kernels.(k) in
           ( b.Kernels.bench_name,
             compile ctx ~name:b.Kernels.bench_name
               ~options:(b.Kernels.tune Driver.default_options) ~luts:b.Kernels.luts
               ~entry:b.Kernels.entry b.Kernels.source ))
         (Gen.shuffle (Gen.rng cfg.seed [ 8; r ]) (Array.init (Array.length kernels) Fun.id)))
  in
  let reference, setups = repeated_setup (fun () -> round None (-1)) in
  let records, window, rss =
    serial cfg rc ~rss_at:25 round (List.map (fun (name, c) -> name, summarize c))
  in
  record_workload_span rc window;
  let compiled name = List.assoc name reference in
  let expected = List.map (fun (name, c) -> name, summarize c) reference in
  let verified =
    List.for_all
      (fun (b : Kernels.benchmark) ->
        Driver.verify ~scalars:b.Kernels.scalars ~arrays:(b.Kernels.arrays ())
          (compiled b.Kernels.bench_name)
        = [])
      Table1.kernels
  in
  let failed =
    count_failed records (fun _ got ->
        List.length got = List.length expected
        && List.for_all (fun (name, s) -> List.assoc_opt name expected = Some s) got)
  in
  let area, clock = Table1.ratios compiled in
  outcome_of ~records ~window ~setups ~rss ~failed ~verified ~spans:rc
    ~designs:(List.map (fun (_, c) -> design_of c) reference)
    ~counters:
      (datapath_counters (List.map snd reference)
      @ [ "table1.area_ratio_geomean", area; "table1.clock_ratio_geomean", clock ])
    ~notes:
      [ Printf.sprintf
          "table1: area_ratio_geomean %.2fx clock_ratio_geomean %.2fx (ours over the IP \
           model, non-LUT rows)"
          area clock ]

(* ------------------------------------------------------------------ *)
(* zoo-cold: seeded small kernels, one cold compile per op              *)
(* ------------------------------------------------------------------ *)

let compile_kernel ctx (k : Gen.kernel) =
  compile ctx ~name:k.Gen.k_entry ~options:k.Gen.k_options ~luts:[] ~entry:k.Gen.k_entry
    k.Gen.k_source

let zoo_cold (cfg : config) (rc : Spans.t option) : outcome =
  (* the warm-up compiles variant 0 of every shape, which costs the same
     on every seed; a set-up takes milliseconds, so more of them steady
     the median *)
  let pool, setups =
    repeated_setup ~n:25 (fun () ->
        let pool = Gen.zoo_pool ~seed:cfg.seed in
        Array.iter
          (fun (k : Gen.kernel) ->
            if String.ends_with ~suffix:"_0" k.Gen.k_entry then ignore (compile_kernel None k))
          pool;
        pool)
  in
  let p = Array.length pool in
  let records, window, rss =
    serial cfg rc ~rss_at:(2 * p) (fun ctx i -> compile_kernel ctx pool.(i mod p)) summarize
  in
  record_workload_span rc window;
  (* the reference compile of every pool kernel, co-simulated against the
     C interpreter on the kernel's sample inputs *)
  let reference = Array.map (compile_kernel None) pool in
  let verified =
    Array.for_all2 (fun (k : Gen.kernel) c -> Driver.verify ~arrays:k.Gen.k_arrays c = []) pool reference
  in
  let expected = Array.map summarize reference in
  let failed = count_failed records (fun i s -> s = expected.(i mod p)) in
  (* circuit quality over the pool of a fixed seed, so that it does not
     move with --seed *)
  let quality = Array.to_list (Array.map (compile_kernel None) (Gen.zoo_pool ~seed:Gen.fixed_seed)) in
  outcome_of ~records ~window ~setups ~rss ~failed ~verified ~spans:rc
    ~designs:(List.map design_of quality)
    ~counters:(datapath_counters quality)
    ~notes:[ Printf.sprintf "zoo: %d distinct kernels, each compiled about %d times" p (List.length records / p) ]

(* ------------------------------------------------------------------ *)
(* cosim-stream: co-simulation rounds over pre-compiled designs         *)
(* ------------------------------------------------------------------ *)

let fir_source n =
  Printf.sprintf
    "void fir(int8 A[%d], int16 C[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
    (n + 4) n n

let net_source n =
  fir_source n
  ^ Printf.sprintf
      "\nvoid smooth(int D[%d], int E[%d]) {\n\
      \  int i;\n\
      \  for (i = 0; i < %d; i = i + 1) {\n\
      \    E[i] = (D[i] + 2*D[i+1] + D[i+2]) >> 2;\n\
      \  }\n\
       }\n\
       \n\
       pipeline firsmooth = fir -> smooth;\n"
      n (n - 2) (n - 2)

(* Output arrays and pointer outputs of the hardware that differ from
   the software's. *)
let mismatches ~(hw_arrays : (string * int64 array) list) ~(hw_scalars : (string * int64) list)
    (sw : Interp.outcome) : int =
  List.length
    (List.filter
       (fun (name, a) -> List.assoc_opt name sw.Interp.arrays <> Some a)
       hw_arrays)
  + List.length
      (List.filter
         (fun (name, v) -> List.assoc_opt name sw.Interp.pointer_outputs <> Some v)
         hw_scalars)

(* One co-simulation: a design, or a network of designs, with its input
   stream. *)
type cosim_case =
  | Single of Driver.compiled * (string * int64 array) list
  | Network of Net.t * (string * int64 array) list

type cosim_result = {
  cr_mismatches : int;
  cr_cycles : int;  (** single-engine cycles *)
  cr_net_cycles : int;
  cr_launches : int;
  cr_reads : int;
  cr_writes : int;
  cr_reuse : float list;
  cr_full : int;
  cr_empty : int;
  cr_high_water : int;
}

let no_result =
  { cr_mismatches = 0; cr_cycles = 0; cr_net_cycles = 0; cr_launches = 0; cr_reads = 0;
    cr_writes = 0; cr_reuse = []; cr_full = 0; cr_empty = 0; cr_high_water = 0 }

(* Hardware model and C interpreter on the same inputs, compared. *)
let cosim ctx (case : cosim_case) : cosim_result =
  match case with
  | Single (c, arrays) ->
    let hw = Spans.span ctx ~layer:"hw" ~name:"hw.simulate" (fun _ -> Driver.simulate ~arrays c) in
    let sw = Spans.span ctx ~layer:"cfront" ~name:"cfront.interpret" (fun _ -> Driver.interpret ~arrays c) in
    { no_result with
      cr_mismatches =
        mismatches ~hw_arrays:hw.Engine.output_arrays ~hw_scalars:hw.Engine.scalar_outputs sw;
      cr_cycles = hw.Engine.cycles;
      cr_launches = hw.Engine.launches;
      cr_reads = hw.Engine.memory_reads;
      cr_writes = hw.Engine.memory_writes;
      cr_reuse = [ hw.Engine.reuse_ratio ] }
  | Network (net, arrays) ->
    let hw = Spans.span ctx ~layer:"net" ~name:"net.simulate" (fun _ -> Net.simulate ~arrays net) in
    let sw = Spans.span ctx ~layer:"cfront" ~name:"net.sequential" (fun _ -> Net.sequential ~arrays net) in
    let chans = hw.Net.nr_channels in
    let sum f = List.fold_left (fun a cs -> a + f cs) 0 chans in
    { no_result with
      cr_mismatches =
        mismatches ~hw_arrays:hw.Net.nr_output_arrays ~hw_scalars:hw.Net.nr_scalar_outputs sw;
      cr_net_cycles = hw.Net.nr_cycles;
      cr_full = sum (fun cs -> cs.Net.cs_full_stalls);
      cr_empty = sum (fun cs -> cs.Net.cs_empty_stalls);
      cr_high_water = List.fold_left (fun a cs -> max a cs.Net.cs_high_water) 0 chans }

let cosim_stream (cfg : config) (rc : Spans.t option) : outcome =
  (* The stream values come from a fixed seed and --seed draws the order
     of the ops. The values set where the simulators' garbage collections
     fall, and with them how far the heap grows: across ten seeds the
     peak memory split between about 33.5 and 36.7 MiB with the values,
     and stayed within 0.2 MiB with the order. *)
  let stream salt n = Gen.stream ~salt n in
  let fir n salt = Single (Driver.compile ~entry:"fir" (fir_source n), [ "A", stream salt (n + 4) ]) in
  let net n salt =
    Network (Net.plan ~jobs:1 ~name:"firsmooth" (net_source n), [ "A", stream salt (n + 4) ])
  in
  (* the warm-up co-simulates every case once; those results are what
     every later op of the same case must reproduce *)
  let (cases, expected), setups =
    repeated_setup (fun () ->
        let cases =
          [| fir 1024 1; fir 4096 2;
             Single
               ( Kernels.compile Kernels.wavelet,
                 [ "X", Array.map (fun v -> Int64.mul v 2L) (stream 3 (16 * 34)) ] );
             net 1024 4; net 4096 5 |]
        in
        cases, Array.map (cosim None) cases)
  in
  let n = Array.length cases in
  let case_of = in_rounds cfg.seed n in
  let records, window, rss =
    serial ~round:n cfg rc ~rss_at:(10 * n)
      (fun ctx i ->
        let k = case_of i in
        k, cosim ctx cases.(k))
      Fun.id
  in
  record_workload_span rc window;
  let failed = count_failed records (fun _ (k, r) -> r = expected.(k)) in
  let compiled =
    List.concat_map
      (function
        | Single (c, _) -> [ c ]
        | Network (net, _) -> List.map (fun sg -> sg.Net.sg_compiled) net.Net.net_stages)
      (Array.to_list cases)
  in
  let sim_s =
    match rc with
    | None -> 0.0
    | Some rc ->
      let nodes, _ = Spans.analyse rc in
      List.fold_left
        (fun a (nd : Spans.node) ->
          match nd.Spans.n_span.Trace.sp_name with
          | "hw.simulate" | "net.simulate" -> a +. nd.Spans.n_incl
          | _ -> a)
        0.0 nodes
  in
  let traced_cycles =
    List.fold_left
      (fun a r ->
        match r.result with
        | Ok (_, c) when r.traced -> a + c.cr_cycles + c.cr_net_cycles
        | _ -> a)
      0 records
  in
  let per_op f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 expected) /. float_of_int n in
  outcome_of ~records ~window ~setups ~rss ~failed ~spans:rc
    ~verified:(Array.for_all (fun r -> r.cr_mismatches = 0) expected)
    ~designs:(List.map design_of compiled)
    ~counters:
      (datapath_counters compiled
      @ [ "hw.cycles_per_op", per_op (fun r -> r.cr_cycles);
          "hw.launches_per_op", per_op (fun r -> r.cr_launches);
          "hw.memory_reads_per_op", per_op (fun r -> r.cr_reads);
          "hw.memory_writes_per_op", per_op (fun r -> r.cr_writes);
          ( "hw.sim_cycles_per_s",
            if sim_s > 0.0 then float_of_int traced_cycles /. sim_s else 0.0 );
          "buffers.reuse_ratio", Stats.mean (List.concat_map (fun r -> r.cr_reuse) (Array.to_list expected));
          "net.cycles_per_op", per_op (fun r -> r.cr_net_cycles);
          "buffers.fifo.full_stalls_per_op", per_op (fun r -> r.cr_full);
          "buffers.fifo.empty_stalls_per_op", per_op (fun r -> r.cr_empty);
          ( "buffers.fifo.high_water",
            float_of_int (Array.fold_left (fun a r -> max a r.cr_high_water) 0 expected) ) ])
    ~notes:
      [ Printf.sprintf "cosim: %.0f simulated cycles and %.0f FIFO stall cycles per op"
          (per_op (fun r -> r.cr_cycles + r.cr_net_cycles))
          (per_op (fun r -> r.cr_full + r.cr_empty)) ]

(* ------------------------------------------------------------------ *)
(* tune-front: fresh-cache autotuner searches                           *)
(* ------------------------------------------------------------------ *)

(* trip count 16 so every unroll factor of the default grid divides it *)
let tune_fir_source =
  "void fir(int A[20], int C[16]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 16; i = i + 1) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

let tune_kernels : (string * string * string * Roccc_hir.Lut_conv.table list) list =
  ( "fir16", tune_fir_source, "fir", [] )
  :: List.map
       (fun (b : Kernels.benchmark) -> b.Kernels.bench_name, b.Kernels.source, b.Kernels.entry, b.Kernels.luts)
       [ Kernels.dct; Kernels.modsq; Kernels.mul_acc; Kernels.wavelet ]

type tune_summary = {
  ts_kernel : string;
  ts_front : (string * int * float * int) list;  (** label, slices, MHz, latch bits *)
  ts_quick : int;
  ts_estimate : int;
  ts_full : int;
  ts_explored : int;
}

let tune_settings domains =
  { (Search.default_settings (Objective.Max_mhz { slice_budget = 4000 })) with
    Search.st_domains = domains }

let search ?trace domains (_, source, entry, luts) =
  Search.run ?trace ~luts (tune_settings domains) ~source ~entry

let tune_summary name (r : Search.result) : tune_summary =
  { ts_kernel = name;
    ts_front =
      List.map
        (fun ((row : Search.row), (s : Roccc_service.Service.success)) ->
          ( row.Search.rw_label, s.Roccc_service.Service.r_slices,
            s.Roccc_service.Service.r_clock_mhz, s.Roccc_service.Service.r_latch_bits ))
        r.Search.res_front;
    ts_quick = r.Search.res_quick_evals;
    ts_estimate = r.Search.res_estimate_evals;
    ts_full = r.Search.res_full_evals;
    ts_explored = r.Search.res_explored }

let tune_front (cfg : config) (rc : Spans.t option) : outcome =
  let kernels = Array.of_list tune_kernels in
  let nk = Array.length kernels in
  (* Ops search on one domain: the benchmark runs pinned to one CPU (see
     Host), where a second domain would only add the wait, at every
     stop-the-world collection, for the other domain to be scheduled. *)
  let search_one ctx ((name, _, _, _) as k) =
    let inner = ref None in
    let trace = Option.map (fun _ -> Trace.create ()) ctx in
    let r =
      Spans.span ctx ~layer:"tune" ~name:("tune.search:" ^ name) (fun c ->
          inner := c;
          search ?trace 1 k)
    in
    (* re-parented after the op's timer stops *)
    let import () =
      match !inner, trace with
      | Some c, Some tr -> Spans.import c (Trace.spans tr)
      | _ -> ()
    in
    tune_summary name r, import
  in
  (* One op searches one kernel. The warm-up searches each once, which
     takes about a second, so the run sets up three times, not five. *)
  let kernel_of = in_rounds cfg.seed nk in
  let (), setups =
    repeated_setup ~n:3 (fun () -> Array.iter (fun k -> ignore (search_one None k)) kernels)
  in
  let records, window, rss =
    serial ~round:nk cfg rc ~rss_at:(10 * nk)
      (fun ctx i -> search_one ctx kernels.(kernel_of i))
      (fun (s, import) ->
        import ();
        s)
  in
  record_workload_span rc window;
  (* the reference: each kernel searched on two domains, which must give
     the same front as the one-domain searches *)
  let reference =
    List.map (fun ((name, _, _, _) as k) -> name, search 2 k) tune_kernels
  in
  let expected = List.map (fun (name, r) -> name, tune_summary name r) reference in
  let failed =
    count_failed records (fun i s ->
        let name, _, _, _ = kernels.(kernel_of i) in
        s.ts_kernel = name && s.ts_front <> [] && List.assoc_opt name expected = Some s)
  in
  (* per kernel, from the reference, which every passing op reproduced;
     so they repeat exactly whatever mix of kernels the window held *)
  let n = float_of_int nk in
  let sum f = float_of_int (List.fold_left (fun a (_, s) -> a + f s) 0 expected) in
  let cached =
    match rc with
    | None -> 0.0
    | Some rc ->
      float_of_int
        (List.length
           (List.filter
              (fun (sp : Trace.span) -> List.mem_assoc "cached" sp.Trace.sp_args)
              (Trace.spans rc.Spans.trace)))
  in
  let traced = List.length (List.filter (fun r -> r.traced) records) in
  outcome_of ~records ~window ~setups ~rss ~failed ~verified:true ~spans:rc
    ~designs:
      (List.map
         (fun (_, (r : Search.result)) ->
           let _, (s : Roccc_service.Service.success) = List.hd r.Search.res_front in
           { slices = s.Roccc_service.Service.r_slices;
             clock_mhz = s.Roccc_service.Service.r_clock_mhz;
             latch_bits = s.Roccc_service.Service.r_latch_bits })
         reference)
    ~counters:
      [ "tune.quick_evals_per_op", sum (fun s -> s.ts_quick) /. n;
        "tune.estimate_evals_per_op", sum (fun s -> s.ts_estimate) /. n;
        "tune.full_evals_per_op", sum (fun s -> s.ts_full) /. n;
        "tune.full_ratio", sum (fun s -> s.ts_full) /. Float.max 1.0 (sum (fun s -> s.ts_explored));
        "tune.cached_pass_reuses_per_op", cached /. float_of_int (max 1 traced);
        "tune.front_points_per_op", sum (fun s -> List.length s.ts_front) /. n ]
    ~notes:[]

(* ------------------------------------------------------------------ *)
(* serve-mixed: two closed-loop clients against a roccc serve process  *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  dir : string;
  conns : (in_channel * out_channel) array;
  trace_file : string option;
}

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let roundtrip ((ic, oc) : in_channel * out_channel) (line : string) : string =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let start_server (cfg : config) ~(tag : string) ~(traced : bool) : server =
  let dir = Filename.concat cfg.out_dir (Printf.sprintf "serve-%d-%s" (Unix.getpid ()) tag) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let trace_file = if traced then Some (Filename.concat dir "trace.json") else None in
  let args =
    [ cfg.roccc; "serve"; "--socket"; sock; "--jobs"; "2"; "--cache"; "--cache-dir";
      Filename.concat dir "cache" ]
    @ (match trace_file with Some f -> [ "--trace"; f ] | None -> [])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process cfg.roccc (Array.of_list args) devnull devnull log in
  Unix.close devnull;
  Unix.close log;
  let deadline = now () +. 30.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
        (* set-up time includes this wait, so poll finely *)
        Unix.sleepf 0.001;
        connect ()
      | _ ->
        (try
           Unix.kill pid Sys.sigkill;
           ignore (Unix.waitpid [] pid)
         with Unix.Unix_error _ -> ());
        failwith "roccc serve did not start listening")
  in
  let c0 = connect () in
  { pid; dir; conns = [| c0; connect () |]; trace_file }

(* Ask the server to shut down, then wait for it; a server that does not
   exit promptly is killed. *)
let stop_server (s : server) : unit =
  (try ignore (roundtrip s.conns.(0) {|{"type":"shutdown"}|}) with _ -> ());
  Array.iter (fun (ic, _) -> try close_in ic with _ -> ()) s.conns;
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let kernel_request ~(id : string) (k : Gen.kernel) : string =
  let o = k.Gen.k_options in
  Json.to_string
    (Json.Obj
       [ "id", Json.Str id; "source", Json.Str k.Gen.k_source; "entry", Json.Str k.Gen.k_entry;
         ( "options",
           Json.Obj
             [ "bus_elements", Json.int o.Driver.bus_elements;
               "unroll_outer_factor", Json.int o.Driver.unroll_outer_factor;
               "target_ns", Json.Num o.Driver.target_ns ] ) ])

let field path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let design_of_response (j : Json.t) : design option =
  match
    ( Option.bind (field [ "slices" ] j) Json.to_int_opt,
      Option.bind (field [ "clock_mhz" ] j) Json.to_float_opt,
      Option.bind (field [ "latch_bits" ] j) Json.to_int_opt )
  with
  | Some slices, Some clock_mhz, Some latch_bits -> Some { slices; clock_mhz; latch_bits }
  | _ -> None

(* Clock rates cross the protocol as 12-digit decimals. *)
let same_design (a : design) (b : design) =
  a.slices = b.slices && a.latch_bits = b.latch_bits
  && Float.abs (a.clock_mhz -. b.clock_mhz) <= 1e-9 *. b.clock_mhz

let same_design_opt a b =
  match a, b with Some a, Some b -> same_design a b | _ -> false

let ok_status j = Option.bind (field [ "status" ] j) Json.to_string_opt = Some "ok"

let health (s : server) : Json.t =
  match Json.parse (roundtrip s.conns.(0) {|{"type":"health"}|}) with
  | Ok j -> j
  | Error msg -> failwith ("unparseable health response: " ^ msg)

(* The server's Chrome trace, one event per line, grouped by the request
   label the server gives each span (the client's request id). *)
let server_spans (file : string) : (string, Trace.span) Hashtbl.t =
  let by_label = Hashtbl.create 1024 in
  In_channel.with_open_text file (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          let line =
            if String.ends_with ~suffix:"," line then String.sub line 0 (String.length line - 1)
            else line
          in
          (match Json.parse line with
          | Ok j when field [ "ph" ] j = Some (Json.Str "X") ->
            let num k = Option.value (Option.bind (field [ k ] j) Json.to_float_opt) ~default:0.0 in
            let str path = Option.bind (field path j) Json.to_string_opt in
            let cat = Option.value (str [ "cat" ]) ~default:"" in
            let label = if cat = "request" then str [ "name" ] else str [ "args"; "job" ] in
            let args =
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | Json.Num f when Float.is_integer f -> Some (k, Trace.Int (int_of_float f))
                  | Json.Str s -> Some (k, Trace.Str s)
                  | _ -> None)
                (match field [ "args" ] j with Some (Json.Obj kv) -> kv | _ -> [])
            in
            Option.iter
              (fun label ->
                Hashtbl.add by_label label
                  { Trace.sp_name = Option.value (str [ "name" ]) ~default:"";
                    sp_cat = cat;
                    sp_tid = Option.value (Option.bind (field [ "tid" ] j) Json.to_int_opt) ~default:0;
                    sp_start_s = num "ts" /. 1e6;
                    sp_dur_s = num "dur" /. 1e6;
                    sp_args = args })
              label
          | _ -> ());
          loop ()
      in
      loop ());
  by_label

let rss_probe_index = 10_000

type serve_record = { sr_req : Gen.request; sr_response : (string, string) result }

let serve_mixed (cfg : config) (rc : Spans.t option) : outcome =
  let hot = Array.init Gen.hot_keys Gen.hot_kernel in
  let n_setups = 9 and setup_count = ref 0 in
  let setup () =
    incr setup_count;
    let s = start_server cfg ~tag:(string_of_int !setup_count) ~traced:(rc <> None && !setup_count = n_setups) in
    (* warm the hot keys, one half per connection *)
    let warmed = Array.make Gen.hot_keys "" in
    let warm c () =
      Array.iteri
        (fun j k ->
          if j mod 2 = c then warmed.(j) <- roundtrip s.conns.(c) (kernel_request ~id:(Printf.sprintf "warm-%d" j) k))
        hot
    in
    let d = Domain.spawn (warm 1) in
    warm 0 ();
    Domain.join d;
    ignore (roundtrip s.conns.(0) (kernel_request ~id:"warm-up" hot.(0)));
    s, warmed
  in
  let live = ref None in
  let cleanup () =
    Option.iter
      (fun (s, _) ->
        stop_server s;
        remove_tree s.dir)
      !live;
    live := None
  in
  Fun.protect ~finally:cleanup (fun () ->
      let (server, warmed), setups =
        repeated_setup ~n:n_setups
          ~discard:(fun (s, _) -> stop_server s; remove_tree s.dir)
          (fun () ->
            let st = setup () in
            live := Some st;
            st)
      in
      let reference =
        Array.map
          (fun line ->
            match Json.parse line with
            | Ok j when ok_status j -> design_of_response j
            | _ -> None)
          warmed
      in
      let cache_stats () =
        match field [ "health"; "cache" ] (health server) with Some c -> c | None -> Json.Null
      in
      let cache0 = cache_stats () in
      let next = Atomic.make 0 in
      let records = Array.make 2 [] in
      (* The server's memory grows with every fresh key it caches, so its
         peak is read at a fixed point of the request stream rather than
         at the end of the window, which would tie it to throughput. *)
      let rss = ref None in
      let client t deadline () =
        while now () < deadline do
          let i = Atomic.fetch_and_add next 1 in
          if i = rss_probe_index then rss := Some (vm_hwm_mb (string_of_int server.pid));
          let req = Gen.request ~seed:cfg.seed i in
          let id = Printf.sprintf "op-%d" i in
          let line =
            match req with
            | Gen.Hot j -> kernel_request ~id hot.(j)
            | Gen.Fresh f -> kernel_request ~id (Gen.fresh_kernel ~seed:cfg.seed f)
            | Gen.Health -> Json.to_string (Json.Obj [ "id", Json.Str id; "type", Json.Str "health" ])
          in
          let traced = rc <> None && i mod 2 = 0 in
          let send _ = try Ok (roundtrip server.conns.(t) line) with e -> Error (Printexc.to_string e) in
          let t0 = now () in
          let response =
            match rc with
            | Some rc when traced ->
              Spans.op_span rc ~tid:(t + 1) ~workload:workload_span_id ~op:i (fun c ->
                  Spans.span (Some c) ~tid:(t + 1) ~layer:"service" ~name:"service.request" send)
            | _ -> send ()
          in
          let dur = now () -. t0 in
          records.(t) <-
            { index = i; start = t0; dur; traced; result = Ok { sr_req = req; sr_response = response } }
            :: records.(t)
        done
      in
      let window =
        measure cfg (fun ~deadline ~last:_ ->
            let d = Domain.spawn (client 1 deadline) in
            client 0 deadline ();
            Domain.join d)
      in
      record_workload_span rc window;
      let records =
        List.sort (fun a b -> compare a.index b.index) (records.(0) @ records.(1))
      in
      let final = health server in
      let rss =
        match !rss with Some r -> r | None -> vm_hwm_mb (string_of_int server.pid)
      in
      stop_server server;
      (* per-layer self time inside the server: its spans for each traced
         request, aligned to end with the client's request span *)
      (match rc, server.trace_file with
      | Some rc, Some file ->
        let by_label = server_spans file in
        List.iter
          (fun (n : Spans.node) ->
            if n.Spans.n_span.Trace.sp_name = "service.request" then
              let foreign = Hashtbl.find_all by_label (Printf.sprintf "op-%d" n.Spans.n_op) in
              match List.find_opt (fun (sp : Trace.span) -> sp.Trace.sp_cat = "request") foreign with
              | Some req ->
                let client_end = n.Spans.n_span.Trace.sp_start_s +. n.Spans.n_span.Trace.sp_dur_s in
                let shift =
                  Float.max
                    (n.Spans.n_span.Trace.sp_start_s -. req.Trace.sp_start_s)
                    (client_end -. req.Trace.sp_dur_s -. req.Trace.sp_start_s)
                in
                Spans.import { Spans.rc; op = n.Spans.n_op; parent = n.Spans.n_id } ~shift foreign
              | None -> ())
          (List.map Spans.node_of (Trace.spans rc.Spans.trace))
      | _ -> ());
      remove_tree server.dir;
      live := None;
      (* end-of-run checks: the hot designs against in-process compiles
         co-simulated with the interpreter, every response against its
         expectation, and every tenth fresh kernel against an in-process
         compile *)
      let hot_ok =
        Array.for_all2
          (fun (k : Gen.kernel) r ->
            let c = Driver.compile ~options:k.Gen.k_options ~entry:k.Gen.k_entry k.Gen.k_source in
            same_design_opt r (Some (design_of c)) && Driver.verify ~arrays:k.Gen.k_arrays c = [])
          hot reference
      in
      let response_ok _ (r : serve_record) =
        match r.sr_response with
        | Error _ -> false
        | Ok line -> (
          match Json.parse line, r.sr_req with
          | Error _, _ -> false
          | Ok j, Gen.Health -> ok_status j && field [ "health"; "requests" ] j <> None
          | Ok j, Gen.Hot h -> ok_status j && same_design_opt (design_of_response j) reference.(h)
          | Ok j, Gen.Fresh f ->
            let k = Gen.fresh_kernel ~seed:cfg.seed f in
            ok_status j
            && Option.bind (field [ "entry" ] j) Json.to_string_opt = Some k.Gen.k_entry
            && (f mod 10 <> 0
               || same_design_opt (design_of_response j)
                    (Some
                       (design_of
                          (Driver.compile ~options:k.Gen.k_options ~entry:k.Gen.k_entry
                             k.Gen.k_source)))))
      in
      let failed = count_failed records response_ok in
      let lat_of pred =
        List.filter_map
          (fun r -> match r.result with Ok sr when pred sr.sr_req -> Some r.dur | _ -> None)
          records
      in
      let hit_p50 = Stats.median (lat_of (function Gen.Hot _ -> true | _ -> false)) in
      let cold_p50 = Stats.median (lat_of (function Gen.Fresh _ -> true | _ -> false)) in
      let delta k =
        let get j = Option.value (Option.bind (field [ k ] j) Json.to_int_opt) ~default:0 in
        float_of_int (get (Option.value (field [ "health"; "cache" ] final) ~default:Json.Null) - get cache0)
      in
      let n = float_of_int (List.length records) in
      let hits = delta "hits" and misses = delta "misses" in
      outcome_of ~records ~window ~setups ~rss ~failed ~verified:hot_ok ~spans:rc
        ~designs:(List.filter_map Fun.id (Array.to_list reference))
        ~counters:
          [ "service.cache.hits_per_op", hits /. n;
            "service.cache.misses_per_op", misses /. n;
            "service.cache.stores_per_op", delta "stores" /. n;
            "service.cache.contended_per_op", delta "contended" /. n;
            "service.cache.flights_per_op", delta "flights" /. n;
            "service.cache.coalesced_per_op", delta "coalesced" /. n;
            "service.cache.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
            ( "service.server.overloaded",
              float_of_int
                (Option.value (Option.bind (field [ "health"; "requests"; "shed" ] final) Json.to_int_opt) ~default:0) );
            "service.cold_to_hit_p50_ratio", cold_p50 /. hit_p50 ]
        ~notes:
          [ Printf.sprintf "serve: client p50 %.3f ms on cache hits, %.3f ms on cold compiles"
              (hit_p50 *. 1e3) (cold_p50 *. 1e3) ])

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Each workload and why it exists (also in BENCHMARK.json). *)
let workloads : (string * (config -> Spans.t option -> outcome)) list =
  [ "table1-cold", table1_cold;
    "zoo-cold", zoo_cold;
    "cosim-stream", cosim_stream;
    "serve-mixed", serve_mixed;
    "tune-front", tune_front ]

let end_to_end : (string * string) list =
  [ "ops_per_s", "1/s"; "op_ms_p50", "ms"; "op_ms_p90", "ms"; "setup_s", "s";
    "peak_rss_mb", "MiB"; "slices_geomean", "slices"; "clock_mhz_geomean", "MHz";
    "latch_bits_mean", "bits" ]

let layers =
  [ "cfront"; "hir"; "vm"; "analysis"; "datapath"; "vhdl"; "fpga"; "hw"; "net"; "service";
    "tune"; "core" ]

let ir_size_passes =
  [ "constant-fold"; "full-unroll"; "scalar-replacement"; "vm-optimize"; "datapath-build";
    "pipelining"; "retiming"; "vhdl-generation" ]

let stage_calls = [ "core.front_end"; "core.lower_to_kernel"; "core.back_end" ]
let tiers = [ "quick"; "estimate"; "full" ]

(* Counters a workload reports in [outcome.counters]; the others report
   0 for them. *)
let counter_units =
  [ "datapath.retime_moves", "count"; "datapath.greedy_latch_bits", "bits";
    "datapath.retime_saved_ratio", "ratio";
    "table1.area_ratio_geomean", "ratio"; "table1.clock_ratio_geomean", "ratio";
    "hw.cycles_per_op", "cycles/op"; "hw.launches_per_op", "count/op";
    "hw.memory_reads_per_op", "count/op"; "hw.memory_writes_per_op", "count/op";
    "hw.sim_cycles_per_s", "cycles/s"; "buffers.reuse_ratio", "ratio";
    "net.cycles_per_op", "cycles/op"; "buffers.fifo.full_stalls_per_op", "cycles/op";
    "buffers.fifo.empty_stalls_per_op", "cycles/op"; "buffers.fifo.high_water", "count";
    "service.cache.hits_per_op", "count/op"; "service.cache.misses_per_op", "count/op";
    "service.cache.stores_per_op", "count/op"; "service.cache.contended_per_op", "count/op";
    "service.cache.flights_per_op", "count/op"; "service.cache.coalesced_per_op", "count/op";
    "service.cache.hit_ratio", "ratio"; "service.server.overloaded", "count";
    "service.cold_to_hit_p50_ratio", "ratio";
    "tune.quick_evals_per_op", "count/op"; "tune.estimate_evals_per_op", "count/op";
    "tune.full_evals_per_op", "count/op"; "tune.full_ratio", "ratio";
    "tune.cached_pass_reuses_per_op", "count/op"; "tune.front_points_per_op", "count/op" ]

let per_layer : (string * string) list =
  List.map (fun l -> Printf.sprintf "layer.%s.share" l, "%") layers
  @ [ "trace.unattributed.share", "%" ]
  @ List.map (fun p -> Printf.sprintf "pass.%s.share" p, "%") (Pass.pass_names ())
  @ List.map (fun s -> s ^ ".share", "%") stage_calls
  @ [ "service.client.share", "%"; "service.server.share", "%" ]
  @ List.map (fun t -> Printf.sprintf "tune.tier.%s.share" t, "%") tiers
  @ List.map (fun p -> Printf.sprintf "pass.%s.ir_size" p, "count") ir_size_passes
  @ counter_units
  @ [ "trace.overhead_ratio", "ratio"; "gc.alloc_mb_per_op", "MB/op";
      "gc.major_collections_per_op", "count/op"; "host.slowdown", "ratio" ]

(* Timings at reference host speed: each op's duration and each slot's
   length divided by the host slowdown probed around it. *)
let end_to_end_values ?(scaled = true) (o : outcome) : (string * float) list =
  let slowdown = if scaled then Host.slowdown o.window.probes else fun _ -> 1.0 in
  let ms = List.map (fun (t, d) -> d *. 1e3 /. slowdown (t +. (d /. 2.0))) o.ops in
  let slot_s = List.fold_left (fun a (s0, s1) -> a +. ((s1 -. s0) /. slowdown ((s0 +. s1) /. 2.0))) 0.0 o.window.slots in
  [ "ops_per_s", float_of_int o.attempted /. slot_s;
    "op_ms_p50", Stats.percentile 50.0 ms;
    "op_ms_p90", Stats.percentile 90.0 ms;
    "setup_s", Stats.median (List.map (fun (t, f) -> if scaled then t /. f else t) o.setups);
    "peak_rss_mb", o.rss_mb;
    "slices_geomean", Stats.geomean (List.map (fun d -> float_of_int d.slices) o.designs);
    "clock_mhz_geomean", Stats.geomean (List.map (fun d -> d.clock_mhz) o.designs);
    "latch_bits_mean", Stats.mean (List.map (fun d -> float_of_int d.latch_bits) o.designs) ]

let per_layer_values (o : outcome) : (string * float) list =
  let span_values =
    match o.spans with
    | None -> []
    | Some rc ->
      let nodes, ops = Spans.analyse rc in
      let total = List.fold_left (fun a (n : Spans.node) -> a +. n.Spans.n_span.Trace.sp_dur_s) 0.0 ops in
      let share pred value =
        100.0 *. List.fold_left (fun a n -> if pred n then a +. value n else a) 0.0 nodes
        /. Float.max total 1e-12
      in
      let self (n : Spans.node) = n.Spans.n_self and incl (n : Spans.node) = n.Spans.n_incl in
      let name (n : Spans.node) = n.Spans.n_span.Trace.sp_name in
      let cat (n : Spans.node) = n.Spans.n_span.Trace.sp_cat in
      let mean_ir p =
        let sizes =
          List.filter_map
            (fun n ->
              if cat n = "pass" && name n = p then
                match List.assoc_opt "ir_size" n.Spans.n_span.Trace.sp_args with
                | Some (Trace.Int s) -> Some (float_of_int s)
                | _ -> None
              else None)
            nodes
        in
        if sizes = [] then 0.0 else Stats.mean sizes
      in
      List.map (fun l -> Printf.sprintf "layer.%s.share" l, share (fun n -> cat n <> "op" && n.Spans.n_layer = l) self) layers
      @ [ "trace.unattributed.share", share (fun n -> cat n = "op") self ]
      @ List.map (fun p -> Printf.sprintf "pass.%s.share" p, share (fun n -> cat n = "pass" && name n = p) self)
          (Pass.pass_names ())
      @ List.map (fun s -> s ^ ".share", share (fun n -> name n = s) incl) stage_calls
      @ [ "service.client.share", share (fun n -> name n = "service.request") self;
          "service.server.share", share (fun n -> cat n = "request") self ]
      @ List.map
          (fun t ->
            ( Printf.sprintf "tune.tier.%s.share" t,
              share (fun n -> cat n = "tune" && Spans.str_arg "tier" n.Spans.n_span = Some t) incl ))
          tiers
      @ List.map (fun p -> Printf.sprintf "pass.%s.ir_size" p, mean_ir p) ir_size_passes
  in
  let ops = float_of_int (max 1 o.attempted) in
  let values =
    span_values @ o.counters
    @ [ ( "trace.overhead_ratio",
          if o.traced_s = [] || o.untraced_s = [] then 1.0
          else Stats.median o.untraced_s /. Stats.median o.traced_s );
        "gc.alloc_mb_per_op", o.window.alloc_bytes /. 1048576.0 /. ops;
        "gc.major_collections_per_op", float_of_int o.window.major_gcs /. ops;
        "host.slowdown", Stats.median (List.map snd o.window.probes) /. Host.reference_ms ]
  in
  (* a layer the workload never touches reads 0 *)
  List.map (fun (k, _) -> k, Option.value (List.assoc_opt k values) ~default:0.0) per_layer

(* The result line: exactly the keys the benchmark contract names. *)
let result_json ~(trace : bool) (o : outcome) : string =
  let units = if trace then per_layer else end_to_end in
  let values = if trace then per_layer_values o else end_to_end_values o in
  Json.to_string
    (Json.Obj
       [ "correct", Json.Bool (o.verified && o.failed = 0);
         "attempted", Json.int o.attempted;
         "failed", Json.int o.failed;
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, unit) ->
                  k, Json.Obj [ "value", Json.Num (List.assoc k values); "unit", Json.Str unit ])
                units) ) ])
