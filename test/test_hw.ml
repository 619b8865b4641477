(* Tests for the smart buffer, address generators, controller, and the
   cycle-accurate execution-model simulator (paper Figure 2). *)

open Roccc_cfront
open Roccc_hir
open Roccc_vm
open Roccc_analysis
open Roccc_datapath
open Roccc_buffers
open Roccc_hw

let fir_source = Roccc_core.Kernels.paper_fir_source

(* The smart buffer moves unboxed words; these push and pop int64 arrays. *)
let push b values =
  Smart_buffer.push b (Roccc_util.Words.of_array values) (Array.length values)

let pop_window b =
  let n = List.length (Smart_buffer.config b).Smart_buffer.window_offsets in
  let w = Roccc_util.Words.create n in
  if Smart_buffer.pop_window b w 0 then Some (Roccc_util.Words.to_array w)
  else None

let acc_source = Roccc_core.Kernels.paper_acc_source

(* Compile a kernel all the way to datapath + pipeline. *)
let compile src name =
  let prog = Parser.parse_program src in
  let _ = Semant.check_program prog in
  let f = List.find (fun g -> g.Ast.fname = name) prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc = Lower.lower_kernel k in
  let _ = Ssa.convert proc in
  let dp = Builder.build proc in
  let w = Widths.infer dp in
  let pipeline = Pipeline.build dp w in
  k, dp, pipeline

(* ------------------------------------------------------------------ *)
(* Smart buffer                                                        *)
(* ------------------------------------------------------------------ *)

let fir_buffer_config =
  { Smart_buffer.element_bits = 32;
    element_signed = true;
    bus_elements = 1;
    array_dims = [ 21 ];
    window_offsets = [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ];
    stride = [ 1 ];
    iterations = [ 17 ];
    lower = [ 0 ] }

let test_buffer_fetches_each_element_once () =
  let b = Smart_buffer.create fir_buffer_config in
  let windows = ref 0 in
  for i = 0 to 20 do
    push b [| Int64.of_int (i * 10) |];
    while Option.is_some (pop_window b) do incr windows done
  done;
  Alcotest.(check int) "21 fetches" 21
    (Smart_buffer.stats b).Smart_buffer.fetched_elements;
  Alcotest.(check int) "17 windows" 17 !windows;
  Alcotest.(check bool) "finished" true (Smart_buffer.finished b)

let test_buffer_window_contents () =
  let b = Smart_buffer.create fir_buffer_config in
  for i = 0 to 4 do
    push b [| Int64.of_int (100 + i) |]
  done;
  match pop_window b with
  | Some w ->
    Alcotest.(check (list int64)) "first window"
      [ 100L; 101L; 102L; 103L; 104L ]
      (Array.to_list w)
  | None -> Alcotest.fail "window should be ready after 5 elements"

let test_buffer_not_ready_early () =
  let b = Smart_buffer.create fir_buffer_config in
  for i = 0 to 3 do
    push b [| Int64.of_int i |]
  done;
  Alcotest.(check bool) "not ready with 4 of 5" false
    (Smart_buffer.window_ready b)

let test_buffer_reuse_ratio () =
  let b = Smart_buffer.create fir_buffer_config in
  for i = 0 to 20 do
    push b [| Int64.of_int i |];
    while Option.is_some (pop_window b) do () done
  done;
  (* naive: 17 windows x 5 elements = 85; smart: 21 fetches *)
  Alcotest.(check int) "naive fetches" 85
    (Smart_buffer.naive_fetches fir_buffer_config);
  let ratio = Smart_buffer.reuse_ratio b in
  Alcotest.(check bool) "ratio ~ 4.05" true (ratio > 4.0 && ratio < 4.1)

let test_buffer_capacity () =
  (* 1-D: extent + bus - 1 *)
  Alcotest.(check int) "FIR capacity" (5 * 32)
    (Smart_buffer.capacity_bits fir_buffer_config);
  (* 2-D 2x2 window on an 8-wide array: one line + 2 + bus - 1 *)
  let cfg2 =
    { Smart_buffer.element_bits = 8;
      element_signed = true;
      bus_elements = 1;
      array_dims = [ 6; 8 ];
      window_offsets = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ];
      stride = [ 1; 1 ];
      iterations = [ 5; 7 ];
      lower = [ 0; 0 ] }
  in
  Alcotest.(check int) "2-D line buffer capacity" (10 * 8)
    (Smart_buffer.capacity_bits cfg2)

let test_buffer_two_dim_windows () =
  let cfg =
    { Smart_buffer.element_bits = 32;
      element_signed = true;
      bus_elements = 1;
      array_dims = [ 3; 3 ];
      window_offsets = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ];
      stride = [ 1; 1 ];
      iterations = [ 2; 2 ];
      lower = [ 0; 0 ] }
  in
  let b = Smart_buffer.create cfg in
  (* data: 0..8 row-major *)
  let windows = ref [] in
  for i = 0 to 8 do
    push b [| Int64.of_int i |];
    match pop_window b with
    | Some w -> windows := !windows @ [ Array.to_list w ]
    | None -> ()
  done;
  (* drain the rest *)
  let rec drain () =
    match pop_window b with
    | Some w ->
      windows := !windows @ [ Array.to_list w ];
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "4 windows" 4 (List.length !windows);
  Alcotest.(check (list (list int64))) "window contents"
    [ [ 0L; 1L; 3L; 4L ]; [ 1L; 2L; 4L; 5L ];
      [ 3L; 4L; 6L; 7L ]; [ 4L; 5L; 7L; 8L ] ]
    !windows

let test_buffer_stride_two () =
  (* Non-overlapping stride-2 windows of width 2 over 8 elements. *)
  let cfg =
    { Smart_buffer.element_bits = 32;
      element_signed = true;
      bus_elements = 2;
      array_dims = [ 8 ];
      window_offsets = [ [ 0 ]; [ 1 ] ];
      stride = [ 2 ];
      iterations = [ 4 ];
      lower = [ 0 ] }
  in
  let b = Smart_buffer.create cfg in
  let windows = ref [] in
  for i = 0 to 3 do
    push b [| Int64.of_int (2 * i); Int64.of_int ((2 * i) + 1) |];
    let rec drain () =
      match pop_window b with
      | Some w ->
        windows := !windows @ [ Array.to_list w ];
        drain ()
      | None -> ()
    in
    drain ()
  done;
  Alcotest.(check (list (list int64))) "stride-2 windows"
    [ [ 0L; 1L ]; [ 2L; 3L ]; [ 4L; 5L ]; [ 6L; 7L ] ]
    !windows;
  (* no reuse at stride 2: ratio = 1 *)
  Alcotest.(check bool) "no reuse" true
    (abs_float (Smart_buffer.reuse_ratio b -. 1.0) < 0.001)

(* ------------------------------------------------------------------ *)
(* Address generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_input_gen_covers_array_once () =
  let g = Address_gen.create_input ~array_dims:[ 10 ] ~bus_elements:3 in
  let rec collect acc =
    let base = Address_gen.issued g in
    match Address_gen.next_read g with
    | 0 -> acc
    | count -> collect (acc @ List.init count (fun i -> base + i))
  in
  let addrs = collect [] in
  Alcotest.(check (list int)) "all addresses once"
    (List.init 10 (fun i -> i))
    addrs

let test_output_gen_sequential () =
  let g =
    Address_gen.create_output ~out_dims:[ 17 ] ~iterations:[ 17 ]
      ~stride:[ 1 ] ~lower:[ 0 ] ~offset:[ 0 ]
  in
  let rec collect acc =
    match Address_gen.next_write g with
    | -1 -> acc
    | a -> collect (acc @ [ a ])
  in
  Alcotest.(check (list int)) "sequential stores"
    (List.init 17 (fun i -> i))
    (collect [])

let test_output_gen_two_dim_offset () =
  let g =
    Address_gen.create_output ~out_dims:[ 4; 4 ] ~iterations:[ 2; 2 ]
      ~stride:[ 1; 1 ] ~lower:[ 0; 0 ] ~offset:[ 1; 1 ]
  in
  let rec collect acc =
    match Address_gen.next_write g with
    | -1 -> acc
    | a -> collect (acc @ [ a ])
  in
  (* positions (1,1) (1,2) (2,1) (2,2) -> 5 6 9 10 *)
  Alcotest.(check (list int)) "offset stores" [ 5; 6; 9; 10 ] (collect [])

(* ------------------------------------------------------------------ *)
(* Engine end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let fir_reference a i =
  (3 * a.(i)) + (5 * a.(i + 1)) + (7 * a.(i + 2)) + (9 * a.(i + 3)) - a.(i + 4)

let test_engine_fir_matches_interp () =
  let k, dp, pipeline = compile fir_source "fir" in
  let input = Array.init 21 (fun i -> (i * 13) - 50) in
  let r =
    Engine.simulate k ~dp ~pipeline
      ~arrays:[ "A", Array.map Int64.of_int input ]
  in
  let c = List.assoc "C" r.Engine.output_arrays in
  for i = 0 to 16 do
    Alcotest.(check int64)
      (Printf.sprintf "C[%d]" i)
      (Int64.of_int (fir_reference input i))
      c.(i)
  done;
  Alcotest.(check int) "17 launches" 17 r.Engine.launches;
  Alcotest.(check int) "each element fetched once" 21 r.Engine.memory_reads;
  Alcotest.(check int) "17 stores" 17 r.Engine.memory_writes

let test_engine_fir_cycle_count () =
  let k, dp, pipeline = compile fir_source "fir" in
  let input = Array.init 21 Int64.of_int in
  let r = Engine.simulate k ~dp ~pipeline ~arrays:[ "A", input ] in
  (* fill (5 window elements + bram latency) + 17 steady cycles + drain *)
  let lower_bound = 17 + r.Engine.pipeline_latency in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d >= %d" r.Engine.cycles lower_bound)
    true
    (r.Engine.cycles >= lower_bound);
  Alcotest.(check bool) "cycles reasonable" true (r.Engine.cycles < 120);
  (* II = 1: steady-state throughput of one window per cycle *)
  Alcotest.(check bool) "reuse ratio ~4" true (r.Engine.reuse_ratio > 3.9)

let test_engine_accumulator () =
  let k, dp, pipeline = compile acc_source "acc" in
  let input = Array.init 32 (fun i -> Int64.of_int ((i * 3) - 20)) in
  let r = Engine.simulate k ~dp ~pipeline ~arrays:[ "A", input ] in
  let want = Array.fold_left (fun s v -> Int64.add s v) 0L input in
  Alcotest.(check int64) "final sum" want
    (List.assoc "out" r.Engine.scalar_outputs)

let test_engine_mul_acc_conditional () =
  let src =
    "int acc = 0;\n\
     void mul_acc(int A[16], int B[16], int ND[16], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i++) {\n\
    \    if (ND[i]) { acc = acc + A[i] * B[i]; }\n\
    \  }\n\
    \  *out = acc;\n\
     }"
  in
  let k, dp, pipeline = compile src "mul_acc" in
  let a = Array.init 16 (fun i -> Int64.of_int (i + 1)) in
  let b = Array.init 16 (fun i -> Int64.of_int ((i * 2) + 1)) in
  let nd = Array.init 16 (fun i -> Int64.of_int (i mod 3)) in
  let r =
    Engine.simulate k ~dp ~pipeline ~arrays:[ "A", a; "B", b; "ND", nd ]
  in
  let want = ref 0L in
  for i = 0 to 15 do
    if not (Int64.equal nd.(i) 0L) then
      want := Int64.add !want (Int64.mul a.(i) b.(i))
  done;
  Alcotest.(check int64) "conditional accumulation" !want
    (List.assoc "out" r.Engine.scalar_outputs)

let test_engine_two_dim_window () =
  let src =
    "void blur(int A[6][6], int C[5][5]) {\n\
    \  int i, j;\n\
    \  for (i = 0; i < 5; i++) {\n\
    \    for (j = 0; j < 5; j++) {\n\
    \      C[i][j] = A[i][j] + A[i][j+1] + A[i+1][j] + A[i+1][j+1];\n\
    \    }\n\
    \  }\n\
     }"
  in
  let k, dp, pipeline = compile src "blur" in
  let a = Array.init 36 (fun i -> Int64.of_int (i * i mod 97)) in
  let r = Engine.simulate k ~dp ~pipeline ~arrays:[ "A", a ] in
  let c = List.assoc "C" r.Engine.output_arrays in
  (* reference from the interpreter *)
  let o = Interp.run_source src "blur" ~arrays:[ "A", a ] in
  let c_ref = List.assoc "C" o.Interp.arrays in
  Alcotest.(check bool) "2-D blur matches interpreter" true (c = c_ref);
  Alcotest.(check int) "36 fetches for 25 windows of 4" 36
    r.Engine.memory_reads

let test_engine_block_kernel_dct_style () =
  (* Fully unrolled 4-point transform: all outputs in one launch. *)
  let src =
    "void t4(int X[4], int Y[4]) {\n\
    \  Y[0] = X[0] + X[1] + X[2] + X[3];\n\
    \  Y[1] = X[0] - X[1] + X[2] - X[3];\n\
    \  Y[2] = X[0] + X[1] - X[2] - X[3];\n\
    \  Y[3] = X[0] - X[1] - X[2] + X[3];\n\
     }"
  in
  let k, dp, pipeline = compile src "t4" in
  Alcotest.(check int) "4 outputs per launch" 4
    (List.length k.Kernel.outputs);
  let x = [| 5L; 3L; 2L; 7L |] in
  let r = Engine.simulate k ~dp ~pipeline ~arrays:[ "X", x ] in
  let y = List.assoc "Y" r.Engine.output_arrays in
  Alcotest.(check (list int64)) "block transform"
    [ 17L; -3L; -1L; 7L ]
    (Array.to_list y);
  Alcotest.(check int) "single launch" 1 r.Engine.launches

let test_engine_controller_trace () =
  let k, dp, pipeline = compile fir_source "fir" in
  let input = Array.init 21 Int64.of_int in
  let r = Engine.simulate k ~dp ~pipeline ~arrays:[ "A", input ] in
  let states = List.map snd r.Engine.controller_trace in
  (* idle (start) -> filling -> steady -> draining -> done *)
  Alcotest.(check bool) "reaches done" true (List.mem "done" states);
  Alcotest.(check bool) "passes steady" true (List.mem "steady" states)

let test_engine_bus_width_speeds_fill () =
  let k, dp, pipeline = compile fir_source "fir" in
  let input = Array.init 21 Int64.of_int in
  let slow =
    Engine.simulate k ~dp ~pipeline ~bus_elements:1 ~arrays:[ "A", input ]
  in
  let fast =
    Engine.simulate k ~dp ~pipeline ~bus_elements:4 ~arrays:[ "A", input ]
  in
  Alcotest.(check bool) "wider bus is not slower" true
    (fast.Engine.cycles <= slow.Engine.cycles);
  Alcotest.(check bool) "same results" true
    (List.assoc "C" fast.Engine.output_arrays
    = List.assoc "C" slow.Engine.output_arrays)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The FIR of the cosim-stream benchmark, with [n] outputs. *)
let stream_fir_source n =
  Printf.sprintf
    "void fir(int8 A[%d], int16 C[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
    (n + 4) n n

(* Minor-heap words the simulator allocates per simulated cycle. One
   domain allocates deterministically, so this is a count, not a timing. *)
let sim_words_per_cycle n =
  let c = Roccc_core.Driver.compile ~entry:"fir" (stream_fir_source n) in
  let arrays =
    [ ( "A",
        Array.init (n + 4) (fun i -> Int64.of_int (((i * 37) mod 256) - 128)) )
    ]
  in
  let before = Gc.minor_words () in
  let r = Roccc_core.Driver.simulate ~arrays c in
  let words = Gc.minor_words () -. before in
  r, words /. float_of_int r.Engine.cycles

let test_engine_cost_linear_in_cycles () =
  let _, small = sim_words_per_cycle 512 in
  let r, large = sim_words_per_cycle 4096 in
  if large > 1.25 *. small then
    Alcotest.failf
      "%.0f words per cycle at 4096 outputs vs %.0f at 512: the simulator \
       is not linear"
      large small;
  Alcotest.(check int) "one launch_trace entry per launch" r.Engine.launches
    (List.length (Lazy.force r.Engine.launch_trace));
  let rec increasing ~strict = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      (if strict then a < b else a <= b) && increasing ~strict rest
    | _ -> true
  in
  Alcotest.(check bool) "launch cycles strictly increase" true
    (increasing ~strict:true (Lazy.force r.Engine.launch_trace));
  Alcotest.(check bool) "retire cycles never decrease" true
    (increasing ~strict:false (Lazy.force r.Engine.retire_trace))

(* A simulated cycle allocates nothing: values move as unboxed words and
   the data path is compiled once. What remains per cycle is set-up and
   the result, chiefly the boxed int64 of each output element (3 words);
   FIR 4096 measures 3.5 words per cycle, against about 740 when the
   engine passed values in lists. *)
let max_words_per_cycle = 8.0

let test_engine_allocation_bounded () =
  let _, words = sim_words_per_cycle 4096 in
  if words > max_words_per_cycle then
    Alcotest.failf
      "FIR 4096 allocates %.1f minor words per simulated cycle (bound %.0f)"
      words max_words_per_cycle

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_engine_fir_random =
  QCheck.Test.make ~count:25 ~name:"engine FIR equals interpreter"
    QCheck.(array_of_size (Gen.return 21) (int_range (-500) 500))
    (fun input ->
      let k, dp, pipeline = compile fir_source "fir" in
      let r =
        Engine.simulate k ~dp ~pipeline
          ~arrays:[ "A", Array.map Int64.of_int input ]
      in
      let c = List.assoc "C" r.Engine.output_arrays in
      let o =
        Interp.run_source fir_source "fir"
          ~arrays:[ "A", Array.map Int64.of_int input ]
      in
      c = List.assoc "C" o.Interp.arrays)

let prop_buffer_windows_match_direct_indexing =
  QCheck.Test.make ~count:50
    ~name:"smart buffer windows equal direct array windows"
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (extent, bus) ->
      let n = 24 in
      let iterations = n - extent + 1 in
      let cfg =
        { Smart_buffer.element_bits = 32;
          element_signed = true;
          bus_elements = bus;
          array_dims = [ n ];
          window_offsets = List.init extent (fun i -> [ i ]);
          stride = [ 1 ];
          iterations = [ iterations ];
          lower = [ 0 ] }
      in
      let b = Smart_buffer.create cfg in
      let data = Array.init n (fun i -> Int64.of_int (i * 7)) in
      let out = ref [] in
      let pos = ref 0 in
      while not (Smart_buffer.finished b) do
        if !pos < n then begin
          let count = min bus (n - !pos) in
          push b (Array.sub data !pos count);
          pos := !pos + count
        end;
        let rec drain () =
          match pop_window b with
          | Some w ->
            out := !out @ [ w ];
            drain ()
          | None -> ()
        in
        drain ()
      done;
      List.length !out = iterations
      && List.for_all
           (fun (idx, w) ->
             Array.to_list w
             = List.init extent (fun j -> data.(idx + j)))
           (List.mapi (fun i w -> i, w) !out))

(* ------------------------------------------------------------------ *)

let suites =
  [ "buffers.smart_buffer",
    [ Alcotest.test_case "each element fetched once" `Quick
        test_buffer_fetches_each_element_once;
      Alcotest.test_case "window contents" `Quick test_buffer_window_contents;
      Alcotest.test_case "not ready early" `Quick test_buffer_not_ready_early;
      Alcotest.test_case "reuse ratio (FIR ~4x)" `Quick
        test_buffer_reuse_ratio;
      Alcotest.test_case "register capacity" `Quick test_buffer_capacity;
      Alcotest.test_case "2-D windows" `Quick test_buffer_two_dim_windows;
      Alcotest.test_case "stride 2, bus 2" `Quick test_buffer_stride_two ];
    "buffers.address_gen",
    [ Alcotest.test_case "input covers array once" `Quick
        test_input_gen_covers_array_once;
      Alcotest.test_case "sequential output" `Quick test_output_gen_sequential;
      Alcotest.test_case "2-D output with offset" `Quick
        test_output_gen_two_dim_offset ];
    "hw.engine",
    [ Alcotest.test_case "FIR matches interpreter" `Quick
        test_engine_fir_matches_interp;
      Alcotest.test_case "FIR cycle counts" `Quick test_engine_fir_cycle_count;
      Alcotest.test_case "accumulator" `Quick test_engine_accumulator;
      Alcotest.test_case "mul_acc conditional feedback" `Quick
        test_engine_mul_acc_conditional;
      Alcotest.test_case "2-D window kernel" `Quick test_engine_two_dim_window;
      Alcotest.test_case "block kernel (DCT-style, 4 out/cycle)" `Quick
        test_engine_block_kernel_dct_style;
      Alcotest.test_case "controller trace" `Quick
        test_engine_controller_trace;
      Alcotest.test_case "bus width" `Quick test_engine_bus_width_speeds_fill;
      Alcotest.test_case "cost linear in cycles" `Quick
        test_engine_cost_linear_in_cycles;
      Alcotest.test_case "allocation per cycle bounded" `Quick
        test_engine_allocation_bounded ];
    "hw.properties",
    [ qcheck_case prop_engine_fir_random;
      qcheck_case prop_buffer_windows_match_direct_indexing ] ]
