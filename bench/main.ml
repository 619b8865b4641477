(* Paper reproduction: regenerates every table and figure of the paper
   (DATE 2005, "Optimized Generation of Data-path from C Codes for FPGAs")
   and runs the ablation studies listed in DESIGN.md. It prints to stdout
   and writes no files; stdout is deterministic (test/golden/bench.txt pins
   it) and the only timings, the area estimator's, go to stderr. The
   compiler's speed is measured by perfbench/.

   Sections (select with --only table1,figures,claims,ablations):
     Table 1   - IP vs ROCCC clock/area for the nine kernels
     Figure 1  - the executed pass pipeline
     Figure 2  - execution-model cycle trace (FIR)
     Figure 3  - FIR scalar replacement stages
     Figure 4  - accumulator feedback stages
     Figure 5/6- if_else data path with soft/mux/pipe nodes
     Figure 7  - accumulator data path with the feedback latch
     §5 claims - DCT throughput, smart-buffer reuse
     ref [13]  - compile-time area estimation speed
     Ablations - stage budget, bit widths, mul_acc rewrite, DCT unrolling *)

module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Baselines = Roccc_ip.Baselines
module Engine = Roccc_hw.Engine
module Graph = Roccc_datapath.Graph
module Pipeline = Roccc_datapath.Pipeline
module Area = Roccc_fpga.Area
module Kernel = Roccc_hir.Kernel
module Table1 = Perfbench.Table1
module Stats = Perfbench.Stats

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let hr () = print_endline (String.make 118 '-')

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Compiles and co-simulates every kernel a Table 1 row needs, then prints
   the rows ({!Table1.row}) beside the paper's and the IP model's numbers. *)
let table1 () =
  let runs =
    List.map
      (fun (b : Kernels.benchmark) ->
        let c, _, diffs = Kernels.run b in
        b.Kernels.bench_name, (c, diffs = []))
      (Kernels.table1 @ [ Kernels.wavelet_cols ])
  in
  let compiled name = fst (List.assoc name runs) in
  let verified name =
    snd (List.assoc name runs)
    && (name <> "wavelet" || snd (List.assoc "wavelet_cols" runs))
  in
  section "Table 1 - hardware performance: Xilinx IP vs ROCCC-generated";
  Printf.printf "%-15s | %-17s | %-17s | %-17s | %-17s | %-7s %-8s | %-7s %-8s | %s\n"
    "" "paper IP" "paper ROCCC" "model IP" "our ROCCC" "%Clk(p)" "%Area(p)"
    "%Clk" "%Area" "hw=sw";
  Printf.printf "%-15s | %8s %8s | %8s %8s | %8s %8s | %8s %8s |\n" "example"
    "MHz" "slices" "MHz" "slices" "MHz" "slices" "MHz" "slices";
  hr ();
  let paper_area (r : Baselines.row) =
    float_of_int r.Baselines.paper_roccc.Baselines.slices
    /. float_of_int r.Baselines.paper_ip.Baselines.slices
  in
  let paper_clock (r : Baselines.row) =
    r.Baselines.paper_roccc.Baselines.clock_mhz
    /. r.Baselines.paper_ip.Baselines.clock_mhz
  in
  List.iter
    (fun (r : Baselines.row) ->
      let name = r.Baselines.name in
      let ip =
        Option.value (Baselines.model name)
          ~default:{ Baselines.slices = 0; clock_mhz = 0.0 }
      in
      let ours = Table1.row compiled name in
      Printf.printf
        "%-15s | %8.0f %8d | %8.0f %8d | %8.0f %8d | %8.0f %8d | %7.3f \
         %8.2f | %7.3f %8.2f | %s\n"
        name r.Baselines.paper_ip.Baselines.clock_mhz
        r.Baselines.paper_ip.Baselines.slices
        r.Baselines.paper_roccc.Baselines.clock_mhz
        r.Baselines.paper_roccc.Baselines.slices ip.Baselines.clock_mhz
        ip.Baselines.slices ours.Baselines.clock_mhz ours.Baselines.slices
        (paper_clock r) (paper_area r)
        (ours.Baselines.clock_mhz /. ip.Baselines.clock_mhz)
        (float_of_int ours.Baselines.slices
        /. float_of_int (max 1 ip.Baselines.slices))
        (if verified name then "yes" else "NO"))
    Baselines.paper_table1;
  hr ();
  (* aggregate over the rows where the compiler does real work (the LUT rows
     are by construction identical on both sides, as in the paper) *)
  let active =
    List.filter
      (fun (r : Baselines.row) ->
        r.Baselines.name <> "cos" && r.Baselines.name <> "arbitrary_lut")
      Baselines.paper_table1
  in
  let area, clock = Table1.ratios compiled in
  Printf.printf
    "geomean (non-LUT rows): paper area ratio %.2fx, ours %.2fx; paper \
     clock ratio %.2fx, ours %.2fx\n"
    (Stats.geomean (List.map paper_area active))
    area
    (Stats.geomean (List.map paper_clock active))
    clock;
  print_endline
    "paper's conclusion: ROCCC-generated circuits take ~2-3x the area of \
     hand IP at comparable clock rates."

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let paper_fir_source = Kernels.paper_fir_source

let paper_acc_source = Kernels.paper_acc_source

let paper_if_else_source = Kernels.paper_if_else_source

let figure1 () =
  section "Figure 1 - ROCCC system overview (executed pass pipeline)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  print_endline (Driver.pass_pipeline_figure c)

let figure1_profiling () =
  section "Figure 1 (left box) - code profiling identifies the kernels";
  let app =
    "void app(int A[68], int B[64], int* count) {\n\
    \  int i;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    B[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
    \  int n;\n\
    \  n = 0;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    if (B[i] > 100) { n = n + 1; }\n\
    \  }\n\
    \  *count = n;\n\
     }\n"
  in
  let p =
    Roccc_core.Profile.analyze ~entry:"app"
      ~arrays:[ "A", Array.init 68 (fun i -> Int64.of_int (i - 30)) ]
      app
  in
  print_string (Roccc_core.Profile.report p)

let figure2 () =
  section "Figure 2 - the execution model (FIR, cycle-accurate)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  let arrays = [ "A", Array.init 21 (fun i -> Int64.of_int i) ] in
  let r = Driver.simulate ~arrays c in
  print_endline
    "off-chip MEM -> BRAM -> smart buffer -> pipelined data path -> BRAM -> \
     off-chip MEM";
  Printf.printf
    "cycles %d | launches %d | latency %d | BRAM reads %d writes %d\n"
    r.Engine.cycles r.Engine.launches r.Engine.pipeline_latency
    r.Engine.memory_reads r.Engine.memory_writes;
  Printf.printf "controller: %s\n"
    (String.concat " -> "
       (List.map
          (fun (cyc, s) -> Printf.sprintf "%s@%d" s cyc)
          r.Engine.controller_trace))

let figure3 () =
  section "Figure 3 - a 5-tap FIR in C (scalar replacement stages)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  let k = c.Driver.kernel in
  print_endline "(a) original C code:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.original);
  print_endline "\n(b) after scalar replacement:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.transformed);
  print_endline "\n(c) the C code fed into the data path generator:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.dp)

let figure4 () =
  section "Figure 4 - an accumulator in C (feedback detection stages)";
  let c = Driver.compile ~entry:"acc" paper_acc_source in
  let k = c.Driver.kernel in
  print_endline "(a) original C code:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.original);
  print_endline "\n(b) after scalar replacement:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.transformed);
  print_endline
    "\n(c) after feedback detection (ROCCC_load_prev / ROCCC_store2next):";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.dp)

let figure56 () =
  section "Figures 5 & 6 - an alternative branch in C and its data path";
  print_endline "(Figure 5) the C code:";
  print_endline paper_if_else_source;
  let c = Driver.compile ~entry:"if_else" paper_if_else_source in
  print_endline
    "(Figure 6) the data path: soft nodes from CFG nodes; hard mux node \
     between the branches and their successor; hard pipe node carrying live \
     variables:";
  print_endline (Graph.to_string c.Driver.dp)

let figure7 () =
  section "Figure 7 - the accumulator data path (SNX latch feeds LPR)";
  let c = Driver.compile ~entry:"acc" paper_acc_source in
  print_endline (Graph.to_string c.Driver.dp);
  print_endline (Pipeline.describe c.Driver.pipeline)

(* ------------------------------------------------------------------ *)
(* §5 claims                                                           *)
(* ------------------------------------------------------------------ *)

let throughput_section () =
  section "Throughput - DCT (paper: ROCCC 8 outputs/cycle vs IP 1/cycle)";
  let c, r, _ = Kernels.run Kernels.dct in
  Printf.printf
    "our DCT: %d outputs per launch, one launch per cycle in steady state\n"
    (List.length c.Driver.kernel.Kernel.outputs);
  Printf.printf "simulated: %d outputs in %d cycles (latency %d)\n"
    r.Engine.memory_writes r.Engine.cycles r.Engine.pipeline_latency;
  Printf.printf
    "IP comparator: 1 output/cycle => ROCCC throughput advantage %dx at \
     %.0f%% of the IP clock (paper: 73.5%%)\n"
    (List.length c.Driver.kernel.Kernel.outputs)
    (100.0 *. c.Driver.area.Area.clock_mhz
    /. (Option.get (Baselines.model "dct")).Baselines.clock_mhz)

let smart_buffer_section () =
  section "Smart buffer - input data reuse (each datum fetched once)";
  List.iter
    (fun (name, b) ->
      let _c, r, _ = Kernels.run b in
      Printf.printf
        "%-14s: %5d memory reads, window demand %5d elements -> reuse %.2fx\n"
        name r.Engine.memory_reads
        (int_of_float
           (r.Engine.reuse_ratio *. float_of_int r.Engine.memory_reads))
        r.Engine.reuse_ratio)
    [ "fir", Kernels.fir; "wavelet_rows", Kernels.wavelet;
      "bit_correlator", Kernels.bit_correlator ]

let power_section () =
  section "Power estimation (Figure 1's third estimate)";
  Printf.printf "%-15s %8s %10s %10s %10s\n" "kernel" "slices" "dyn mW"
    "static mW" "total mW";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let c = Kernels.compile b in
        let pw = Area.power c.Driver.area in
        Printf.printf "%-15s %8d %10.1f %10.1f %10.1f\n" name
          c.Driver.area.Area.slices pw.Area.dynamic_mw pw.Area.static_mw
          pw.Area.total_mw)
    [ "bit_correlator"; "fir"; "dct"; "square_root"; "wavelet" ];
  print_endline
    "(first-order model: dynamic ~ slices x clock x toggle; the paper's \
     Figure 1 lists power as a compile-time estimate but reports none)"

let area_estimation_section () =
  section "Compile-time area estimation (paper ref [13]: <1 ms, ~5%)";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let c = Kernels.compile b in
        let t0 = Unix.gettimeofday () in
        let iterations = 100 in
        let result = ref 0 in
        for _ = 1 to iterations do
          result := Area.quick_estimate c.Driver.dp
        done;
        let t1 = Unix.gettimeofday () in
        let us = (t1 -. t0) /. float_of_int iterations *. 1e6 in
        (* the timing goes to stderr so stdout stays deterministic *)
        Printf.printf "%-14s: quick estimate %5d slices vs full model %5d\n"
          name !result c.Driver.area.Area.slices;
        Printf.eprintf "%-14s: %.0f us per quick estimate\n" name us)
    [ "bit_correlator"; "mul_acc"; "fir"; "dct"; "square_root" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_stage_budget () =
  section "Ablation - pipeline stage budget vs clock and registers (FIR)";
  Printf.printf "%10s %8s %10s %12s\n" "target ns" "stages" "clock MHz"
    "latch bits";
  List.iter
    (fun target_ns ->
      let c =
        Driver.compile
          ~options:{ Driver.default_options with Driver.target_ns }
          ~entry:"fir" paper_fir_source
      in
      Printf.printf "%10.1f %8d %10.1f %12d\n" target_ns
        (Pipeline.latency c.Driver.pipeline)
        c.Driver.pipeline.Pipeline.clock_mhz
        c.Driver.pipeline.Pipeline.latch_bits)
    [ 2.0; 3.0; 5.0; 8.0; 12.0; 50.0 ]

let ablation_bit_widths () =
  section "Ablation - bit-width inference on/off";
  Printf.printf "%-15s %18s %18s %8s\n" "kernel" "inferred (slices)"
    "declared (slices)" "saving";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let on = Kernels.compile b in
        let off =
          Driver.compile
            ~options:
              { (b.Kernels.tune Driver.default_options) with
                Driver.disabled_passes = [ "bit-width-inference" ] }
            ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
        in
        let s_on = on.Driver.area.Area.slices in
        let s_off = off.Driver.area.Area.slices in
        Printf.printf "%-15s %18d %18d %7.0f%%\n" name s_on s_off
          (100.0 *. (1.0 -. (float_of_int s_on /. float_of_int s_off))))
    [ "bit_correlator"; "mul_acc"; "fir"; "dct"; "udiv" ]

let ablation_mul_acc_rewrite () =
  section "Ablation - mul_acc: if/else vs multiply-by-nd (paper §5)";
  (* the paper: rewriting the nd guard as a multiplication used one more
     multiplier but beat the if/else version in area and clock *)
  let if_else_version = Kernels.mul_acc in
  let mult_version =
    "int acc = 0;\n\
     void mul_acc(int12 A[64], int12 B[64], uint1 ND[64], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    acc = acc + ND[i] * (A[i] * B[i]);\n\
    \  }\n\
    \  *out = acc;\n\
     }\n"
  in
  let c1 = Kernels.compile if_else_version in
  let c2 = Driver.compile ~entry:"mul_acc" mult_version in
  Printf.printf "if/else version    : %4d slices @ %6.1f MHz\n"
    c1.Driver.area.Area.operator_slices c1.Driver.area.Area.clock_mhz;
  Printf.printf "multiply-nd version: %4d slices @ %6.1f MHz\n"
    c2.Driver.area.Area.operator_slices c2.Driver.area.Area.clock_mhz;
  (* equivalence of the two algorithms *)
  let arrays = if_else_version.Kernels.arrays () in
  let r1 = Driver.simulate ~arrays c1 in
  let r2 = Driver.simulate ~arrays c2 in
  Printf.printf "same result: %b\n"
    (r1.Engine.scalar_outputs = r2.Engine.scalar_outputs)

let ablation_dct_unroll () =
  section "Ablation - DCT: fully unrolled block vs streamed row";
  let block = Kernels.compile Kernels.dct in
  (* streamed comparison: one matrix row applied per launch over a sliding
     window — 1 output per cycle, the IP-style schedule *)
  let row = Kernels.dct8_coeff.(1) in
  let streamed_src =
    let terms =
      Array.to_list row
      |> List.mapi (fun n c ->
             if c >= 0 then Printf.sprintf "+ %d*X[i+%d]" c n
             else Printf.sprintf "- %d*X[i+%d]" (-c) n)
      |> String.concat " "
    in
    Printf.sprintf
      "void dct_row(int8 X[15], int19 Y[8]) {\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i++) {\n\
      \    Y[i] = %s;\n\
      \  }\n\
       }\n"
      (String.sub terms 2 (String.length terms - 2))
  in
  let streamed = Driver.compile ~entry:"dct_row" streamed_src in
  Printf.printf
    "block (paper's):   %4d slices, %d outputs/cycle, clock %6.1f MHz\n"
    block.Driver.area.Area.slices
    (List.length block.Driver.kernel.Kernel.outputs)
    block.Driver.area.Area.clock_mhz;
  Printf.printf
    "streamed row:      %4d slices, 1 output/cycle,  clock %6.1f MHz\n"
    streamed.Driver.area.Area.slices streamed.Driver.area.Area.clock_mhz;
  print_endline
    "=> unrolling trades ~8x area for 8x throughput at a similar clock."

let ablation_partial_unroll () =
  section "Ablation - partial unrolling of the FIR loop (area vs throughput)";
  let src =
    "void fir(int8 A[36], int16 C[32]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 32; i++) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
  in
  Printf.printf "%8s %8s %14s %10s %8s\n" "factor" "slices" "outputs/cycle"
    "clock MHz" "cycles";
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int i) ] in
  List.iter
    (fun factor ->
      let c =
        Driver.compile
          ~options:
            { Driver.default_options with
              Driver.unroll_outer_factor = factor;
              bus_elements = factor }
          ~entry:"fir" src
      in
      let r = Driver.simulate ~arrays c in
      Printf.printf "%8d %8d %14d %10.1f %8d\n" factor
        c.Driver.area.Area.slices
        (List.length c.Driver.kernel.Kernel.outputs)
        c.Driver.area.Area.clock_mhz r.Engine.cycles)
    [ 1; 2; 4; 8 ]

let ablation_backend_optimize () =
  section "Ablation - back-end CSE/copy-propagation/DCE";
  Printf.printf "%-15s %14s %14s %8s\n" "kernel" "on (slices)" "off (slices)"
    "saving";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let on = Kernels.compile b in
        let off =
          Driver.compile
            ~options:
              { (b.Kernels.tune Driver.default_options) with
                Driver.disabled_passes = [ "vm-optimize" ] }
            ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
        in
        let s_on = on.Driver.area.Area.slices in
        let s_off = off.Driver.area.Area.slices in
        Printf.printf "%-15s %14d %14d %7.0f%%\n" name s_on s_off
          (100.0 *. (1.0 -. (float_of_int s_on /. float_of_int s_off))))
    [ "dct"; "fir"; "square_root"; "wavelet" ]

let ablation_loop_fusion () =
  section "Ablation - loop fusion (two filters over one array)";
  let two_loops =
    "void pair(int8 A[36], int16 C[32], int16 E[32]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 32; i++) { C[i] = 3*A[i] + 5*A[i+1] - A[i+4]; }\n\
    \  for (i = 0; i < 32; i++) { E[i] = 2*A[i] + 4*A[i+2] + A[i+3]; }\n\
     }\n"
  in
  let fused = Driver.compile ~entry:"pair" two_loops in
  (match
     Driver.compile
       ~options:
         { Driver.default_options with
           Driver.disabled_passes = [ "loop-fusion" ] }
       ~entry:"pair" two_loops
   with
  | _ -> Printf.printf "unfused: unexpectedly compiled as one kernel\n"
  | exception Driver.Error msg ->
    Printf.printf "without fusion the pair is rejected: %s\n" msg);
  Printf.printf
    "fused: one loop, %d window input(s) sharing one smart buffer, %d \
     outputs/cycle, %d slices\n"
    (List.length fused.Driver.kernel.Kernel.windows)
    (List.length fused.Driver.kernel.Kernel.outputs)
    fused.Driver.area.Area.slices;
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int ((i * 7) - 100)) ] in
  Printf.printf "fused verifies: %b\n"
    (Driver.verify ~arrays fused = [])

let ablation_smart_buffer () =
  section "Ablation - smart buffer vs naive per-iteration fetches";
  List.iter
    (fun (name, b) ->
      let _c, r, _ = Kernels.run b in
      let naive =
        int_of_float
          (r.Engine.reuse_ratio *. float_of_int r.Engine.memory_reads)
      in
      Printf.printf
        "%-14s: smart %5d fetches | naive %5d | traffic saved %.0f%%\n" name
        r.Engine.memory_reads naive
        (100.0 *. (1.0 -. (1.0 /. Float.max 1.0 r.Engine.reuse_ratio))))
    [ "fir", Kernels.fir; "wavelet_rows", Kernels.wavelet ]

(* ------------------------------------------------------------------ *)

(* `bench --only table1,claims` (or --only=...) runs just those
   sections. *)
let sections : (string * (unit -> unit)) list =
  [ "table1", table1;
    ( "figures",
      fun () ->
        figure1 ();
        figure1_profiling ();
        figure2 ();
        figure3 ();
        figure4 ();
        figure56 ();
        figure7 () );
    ( "claims",
      fun () ->
        throughput_section ();
        smart_buffer_section ();
        area_estimation_section ();
        power_section () );
    ( "ablations",
      fun () ->
        ablation_stage_budget ();
        ablation_bit_widths ();
        ablation_mul_acc_rewrite ();
        ablation_dct_unroll ();
        ablation_partial_unroll ();
        ablation_backend_optimize ();
        ablation_loop_fusion ();
        ablation_smart_buffer () ) ]

let selected_sections () : string list option =
  let argv = Sys.argv in
  let found = ref None in
  Array.iteri
    (fun i a ->
      let prefix = "--only=" in
      if a = "--only" && i + 1 < Array.length argv then
        found := Some argv.(i + 1)
      else if String.starts_with ~prefix a then
        found :=
          Some (String.sub a (String.length prefix)
                  (String.length a - String.length prefix)))
    argv;
  match !found with
  | None -> None
  | Some spec ->
    let names =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    List.iter
      (fun n ->
        if not (List.mem_assoc n sections) then begin
          Printf.eprintf "unknown bench section %S; available: %s\n" n
            (String.concat ", " (List.map fst sections));
          exit 2
        end)
      names;
    Some names

let () =
  print_endline "ROCCC data-path generation - reproduction benchmark harness";
  print_endline "(paper numbers quoted from DATE 2005, Table 1)";
  let only = selected_sections () in
  let want name =
    match only with None -> true | Some names -> List.mem name names
  in
  List.iter (fun (name, run) -> if want name then run ()) sections;
  print_endline "\ndone."
