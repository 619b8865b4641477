(* Second-wave differential fuzzing: random kernels WITH loop-carried
   feedback (conditional and unconditional accumulation), random 2-D window
   kernels, and mixed-geometry inputs — always checking the cycle-accurate
   hardware simulation against the C interpreter. *)

module Driver = Roccc_core.Driver
module Pipeline = Roccc_datapath.Pipeline

let qcheck_case = QCheck_alcotest.to_alcotest

(* Every fuzzed design also checks the exact retimer against greedy
   placement: a well-formed staging, no more latch bits, and the stage
   count and clock of greedy placement; and its VHDL has exactly the
   pipeline register bits the area model charges. *)
let retiming_ok (c : Driver.compiled) : bool =
  let p = c.Driver.pipeline in
  let o = c.Driver.options in
  let greedy =
    Pipeline.build ~target_ns:o.Driver.target_ns
      ~stage_budget:o.Driver.stage_budget ~decomp:o.Driver.decomp
      ~retime:false c.Driver.dp c.Driver.widths
  in
  Pipeline.verify p;
  p.Pipeline.latch_bits <= p.Pipeline.greedy_latch_bits
  && p.Pipeline.greedy_latch_bits = greedy.Pipeline.latch_bits
  && p.Pipeline.stage_count = greedy.Pipeline.stage_count
  && p.Pipeline.clock_mhz >= greedy.Pipeline.clock_mhz -. 1e-9
  && Test_vhdl.pipeline_register_bits c.Driver.design = p.Pipeline.latch_bits

(* ------------------------------------------------------------------ *)
(* Feedback kernels                                                    *)
(* ------------------------------------------------------------------ *)

let gen_feedback_kernel : string QCheck.Gen.t =
  let open QCheck.Gen in
  let term =
    oneofl
      [ "A[i]"; "A[i+1]"; "(A[i] * 3)"; "(A[i] - A[i+1])"; "(A[i] & 255)";
        "(A[i] >> 1)" ]
  in
  let* update =
    oneofl
      [ (fun t -> Printf.sprintf "acc = acc + %s;" t);
        (fun t -> Printf.sprintf "acc = acc + %s; acc = acc & 65535;" t);
        (fun t ->
          Printf.sprintf "if (%s > 0) { acc = acc + %s; }" t t);
        (fun t ->
          Printf.sprintf
            "if (acc < 10000) { acc = acc + %s; } else { acc = acc - %s; }" t
            t) ]
  in
  let* t = term in
  let+ init = int_range (-50) 50 in
  Printf.sprintf
    "int acc = %d;\n\
     void k(int16 A[18], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i++) {\n\
    \    %s\n\
    \  }\n\
    \  *out = acc;\n\
     }\n"
    init (update t)

let prop_feedback_kernels_verify =
  QCheck.Test.make ~count:60
    ~name:"random feedback kernels: hw = sw"
    (QCheck.make gen_feedback_kernel ~print:(fun s -> s))
    (fun source ->
      let arrays =
        [ "A", Array.init 18 (fun i -> Int64.of_int ((i * 457 mod 901) - 450)) ]
      in
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c -> Driver.verify ~arrays c = [] && retiming_ok c)

(* ------------------------------------------------------------------ *)
(* 2-D window kernels                                                  *)
(* ------------------------------------------------------------------ *)

let gen_2d_kernel : string QCheck.Gen.t =
  let open QCheck.Gen in
  let tap = oneofl [ "P[r][c]"; "P[r][c+1]"; "P[r+1][c]"; "P[r+1][c+1]";
                     "P[r][c+2]"; "P[r+2][c]" ] in
  let rec expr depth =
    if depth <= 0 then tap
    else
      let sub = expr (depth - 1) in
      oneof
        [ tap;
          map (fun c -> string_of_int c) (int_range (-9) 9);
          map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub tap ]
  in
  let+ e = expr 2 in
  Printf.sprintf
    "void k(int8 P[8][8], int32 Q[6][6]) {\n\
    \  int r, c;\n\
    \  for (r = 0; r < 6; r++) {\n\
    \    for (c = 0; c < 6; c++) {\n\
    \      Q[r][c] = %s;\n\
    \    }\n\
    \  }\n\
     }\n"
    e

let prop_2d_kernels_verify =
  QCheck.Test.make ~count:50 ~name:"random 2-D window kernels: hw = sw"
    (QCheck.make gen_2d_kernel ~print:(fun s -> s))
    (fun source ->
      let arrays =
        [ "P", Array.init 64 (fun i -> Int64.of_int ((i * 83 mod 251) - 125)) ]
      in
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c -> Driver.verify ~arrays c = [] && retiming_ok c)

(* ------------------------------------------------------------------ *)
(* Mixed input geometries                                              *)
(* ------------------------------------------------------------------ *)

let test_different_array_lengths () =
  (* window lanes over arrays of different sizes stay in lockstep *)
  let src =
    "void k(int16 A[12], int16 B[20], int32 C[10]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 10; i++) {\n\
    \    C[i] = A[i] * B[i+8];\n\
    \  }\n\
     }"
  in
  let c = Driver.compile ~entry:"k" src in
  let a = Array.init 12 (fun i -> Int64.of_int (i + 1)) in
  let b = Array.init 20 (fun i -> Int64.of_int (i * 2)) in
  Alcotest.(check (list string)) "verifies" []
    (Driver.verify ~arrays:[ "A", a; "B", b ] c);
  let r = Driver.simulate ~arrays:[ "A", a; "B", b ] c in
  (* each element fetched at most once; the engine stops at done, so the
     longer array's unneeded tail may remain unfetched *)
  Alcotest.(check bool)
    (Printf.sprintf "reads %d within [28, 32]" r.Roccc_hw.Engine.memory_reads)
    true
    (r.Roccc_hw.Engine.memory_reads >= 28
    && r.Roccc_hw.Engine.memory_reads <= 32)

let test_window_far_offset () =
  (* a window whose smallest offset is far from zero *)
  let src =
    "void k(int16 A[40], int32 C[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i++) {\n\
    \    C[i] = A[i+30] - A[i+25];\n\
    \  }\n\
     }"
  in
  let c = Driver.compile ~entry:"k" src in
  let a = Array.init 40 (fun i -> Int64.of_int (i * i)) in
  Alcotest.(check (list string)) "verifies" []
    (Driver.verify ~arrays:[ "A", a ] c)

let prop_feedback_width_soundness =
  (* width inference remains sound in the presence of feedback loops *)
  QCheck.Test.make ~count:40
    ~name:"width inference sound on feedback kernels"
    (QCheck.make gen_feedback_kernel ~print:(fun s -> s))
    (fun source ->
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c ->
        retiming_ok c
        &&
        let dp = c.Driver.dp in
        let inputs =
          List.concat_map
            (fun (w : Roccc_hir.Kernel.window_input) ->
              List.mapi
                (fun j (_, name) -> name, Int64.of_int ((j * 119 mod 400) - 200))
                w.Roccc_hir.Kernel.win_scalars)
            c.Driver.kernel.Roccc_hir.Kernel.windows
        in
        (* iterate a few times to move the feedback away from its init *)
        let stream = List.init 6 (fun _ -> inputs) in
        let full = Roccc_datapath.Dp_eval.run_stream dp stream in
        (* narrow evaluation: manual loop threading feedback *)
        let feedback_prev = ref [] in
        let narrow =
          List.map
            (fun inputs ->
              let r =
                Roccc_datapath.Dp_eval.run ~widths:c.Driver.widths
                  ~feedback_prev:!feedback_prev dp ~inputs
              in
              let merged =
                r.Roccc_datapath.Dp_eval.feedback_next
                @ List.filter
                    (fun (n, _) ->
                      not
                        (List.mem_assoc n r.Roccc_datapath.Dp_eval.feedback_next))
                    !feedback_prev
              in
              feedback_prev := merged;
              r)
            stream
        in
        List.for_all2
          (fun (a : Roccc_datapath.Dp_eval.result) b ->
            a.Roccc_datapath.Dp_eval.outputs
            = b.Roccc_datapath.Dp_eval.outputs)
          full narrow)

(* ------------------------------------------------------------------ *)
(* The compiled data-path evaluator against the VM evaluator           *)
(* ------------------------------------------------------------------ *)

module Dp_eval = Roccc_datapath.Dp_eval
module Eval = Roccc_vm.Eval

(* 64-bit operators that run through the decomposed wide models *)
let wide_source =
  "void wide(int64 A[10], int64 B[10], int64 C[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i++) {\n\
  \    C[i] = A[i] * B[i+1] + A[i+2] - B[i];\n\
  \  }\n\
   }\n"

(* division and remainder by zero on the lane the mux discards *)
let guarded_source =
  "void guarded(int A[8], int B[8], int C[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i++) {\n\
  \    if (B[i] != 0) { C[i] = A[i] / B[i] + A[i] % B[i]; }\n\
  \    else { C[i] = A[i]; }\n\
  \  }\n\
   }\n"

(* The gallery (LUT calls among them) and the two kernels above. *)
let evaluator_cases : Driver.compiled list Lazy.t =
  lazy
    (List.map Roccc_core.Kernels.compile Roccc_core.Kernels.gallery
    @ [ Driver.compile ~entry:"wide" wide_source;
        Driver.compile ~entry:"guarded" guarded_source ])

(* Input values: zeros (to reach guarded division), small values, and
   the full 64-bit range. *)
let gen_stream : int64 array list QCheck.Gen.t =
  let open QCheck.Gen in
  let value =
    frequency
      [ 2, return 0L; 5, map Int64.of_int (int_range (-300) 300); 2, ui64 ]
  in
  list_size (int_range 1 8) (array_repeat 16 value)

(* Run [stream] through the VM on the procedure and through the compiled
   evaluator, at declared and at inferred widths, threading feedback in
   each: every output and SNX store must agree. A stream the C program
   traps on (a division by zero it really takes) is compared up to the
   trap. *)
let compiled_matches_vm (c : Driver.compiled) (stream : int64 array list) :
    bool =
  let luts = List.map Roccc_hir.Lut_conv.interp_binding c.Driver.luts in
  let dp = c.Driver.dp in
  let full = Dp_eval.prepare ~luts dp in
  let narrow = Dp_eval.prepare ~luts ~widths:c.Driver.widths dp in
  let sorted = List.sort compare in
  let thread prev next =
    next @ List.filter (fun (n, _) -> not (List.mem_assoc n next)) prev
  in
  let rec go fb_vm fb_full fb_narrow = function
    | [] -> true
    | values :: rest -> (
      let inputs =
        List.mapi
          (fun j (p : Roccc_vm.Proc.port) ->
            p.Roccc_vm.Proc.port_name, values.(j mod Array.length values))
          dp.Roccc_datapath.Graph.input_ports
      in
      match Eval.run ~luts ~feedback_prev:fb_vm c.Driver.proc ~inputs with
      | exception Roccc_vm.Instr.Vm_error _ -> true
      | vm ->
        let a = Dp_eval.run_prepared ~feedback_prev:fb_full full ~inputs in
        let b = Dp_eval.run_prepared ~feedback_prev:fb_narrow narrow ~inputs in
        let same (o1, f1) (o2, f2) =
          sorted o1 = sorted o2 && sorted f1 = sorted f2
        in
        let vm_r = vm.Eval.outputs, vm.Eval.feedback_next in
        same vm_r (a.Dp_eval.outputs, a.Dp_eval.feedback_next)
        && same vm_r (b.Dp_eval.outputs, b.Dp_eval.feedback_next)
        && go
             (thread fb_vm vm.Eval.feedback_next)
             (Dp_eval.thread_feedback fb_full a)
             (Dp_eval.thread_feedback fb_narrow b)
             rest)
  in
  go [] [] [] stream

let prop_evaluator_matches_vm_on_cases =
  QCheck.Test.make ~count:80
    ~name:"compiled evaluator = VM evaluator (gallery, wide, guarded division)"
    (QCheck.make
       QCheck.Gen.(pair (int_range 0 11) gen_stream)
       ~print:(fun (k, _) ->
         (List.nth (Lazy.force evaluator_cases) k).Driver.entry))
    (fun (k, stream) ->
      compiled_matches_vm (List.nth (Lazy.force evaluator_cases) k) stream)

let prop_evaluator_matches_vm_on_kernels name gen =
  QCheck.Test.make ~count:40 ~name
    (QCheck.make QCheck.Gen.(pair gen gen_stream) ~print:fst)
    (fun (source, stream) ->
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c -> compiled_matches_vm c stream)

let suites =
  [ "fuzz2",
    [ qcheck_case prop_feedback_kernels_verify;
      qcheck_case prop_2d_kernels_verify;
      qcheck_case prop_feedback_width_soundness;
      qcheck_case prop_evaluator_matches_vm_on_cases;
      qcheck_case
        (prop_evaluator_matches_vm_on_kernels
           "compiled evaluator = VM evaluator (random feedback kernels)"
           gen_feedback_kernel);
      qcheck_case
        (prop_evaluator_matches_vm_on_kernels
           "compiled evaluator = VM evaluator (random 2-D kernels)"
           gen_2d_kernel);
      Alcotest.test_case "different array lengths" `Quick
        test_different_array_lengths;
      Alcotest.test_case "far window offsets" `Quick test_window_far_offset ] ]
