(* Integration tests: the full driver pipeline on every Table 1 benchmark,
   co-simulated against the C interpreter, plus golden checks against the
   hand-written behavioural models. *)

open Roccc_core
module Behaviour = Roccc_ip.Behaviour
module Baselines = Roccc_ip.Baselines

(* ------------------------------------------------------------------ *)
(* Every benchmark compiles and matches the software semantics          *)
(* ------------------------------------------------------------------ *)

let check_benchmark name =
  match Kernels.find name with
  | None -> Alcotest.fail ("unknown benchmark " ^ name)
  | Some b ->
    let _c, _r, diffs = Kernels.run b in
    Alcotest.(check (list string)) (name ^ " hw = sw") [] diffs

let test_bench name () = check_benchmark name

let test_wavelet_cols () =
  let _c, _r, diffs = Kernels.run Kernels.wavelet_cols in
  Alcotest.(check (list string)) "wavelet_cols hw = sw" [] diffs

(* A callee's local must not overwrite the caller's local of the same
   name: the inline pass gives the hardware fresh names, and the
   interpreter gives each function its own frame. *)
let callee_local_source =
  "int f(int x) { int t; t = x + 100; return t; }\n\
   void k(int A[8], int B[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i = i + 1) {\n\
  \    int t; int u;\n\
  \    t = A[i];\n\
  \    u = f(t);\n\
  \    B[i] = t + u;\n\
  \  }\n\
   }\n"

let test_callee_locals_private () =
  let c = Driver.compile ~entry:"k" callee_local_source in
  let arrays = [ "A", Array.init 8 (fun i -> Int64.of_int (i + 1)) ] in
  Alcotest.(check (list string)) "hw = sw" [] (Driver.verify ~arrays c);
  Alcotest.(check (option (array int64))) "B = 2t + 100"
    (Some (Array.init 8 (fun i -> Int64.of_int (102 + (2 * i)))))
    (List.assoc_opt "B" (Driver.interpret ~arrays c).Roccc_cfront.Interp.arrays)

(* A call's value is truncated to the callee's declared return kind, in
   the interpreter as in the hardware: nib(7) = 16 wraps to 0. *)
let return_kind_source =
  "uint4 nib(int x) { return x + 9; }\n\
   void k(int A[8], int B[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i = i + 1) { B[i] = nib(A[i]); }\n\
   }\n"

let test_return_truncated () =
  let c = Driver.compile ~entry:"k" return_kind_source in
  let arrays = [ "A", Array.init 8 (fun i -> Int64.of_int (i + 1)) ] in
  Alcotest.(check (list string)) "hw = sw" [] (Driver.verify ~arrays c);
  Alcotest.(check (option (array int64))) "B = (A + 9) mod 16"
    (Some (Array.init 8 (fun i -> Int64.of_int ((i + 10) mod 16))))
    (List.assoc_opt "B" (Driver.interpret ~arrays c).Roccc_cfront.Interp.arrays)

(* An array element written at several sites gets one output port: the
   data path muxes the writes, and the last write on each path wins. *)
let conditional_write_source body =
  "void k(int A[8], int B[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i = i + 1) {\n" ^ body ^ "\n  }\n}\n"

let test_conditional_writes () =
  let arrays = [ "A", [| 1L; 5L; 2L; 6L; 3L; 7L; 4L; 8L |] ] in
  List.iter
    (fun (name, body, expected) ->
      let c = Driver.compile ~entry:"k" (conditional_write_source body) in
      Alcotest.(check (list string)) (name ^ ": hw = sw") []
        (Driver.verify ~arrays c);
      Alcotest.(check int) (name ^ ": one output port") 1
        (List.length c.Driver.kernel.Roccc_hir.Kernel.outputs);
      Alcotest.(check (array int64)) (name ^ ": B")
        (Array.map Int64.of_int expected)
        (List.assoc "B" (Driver.simulate ~arrays c).Roccc_hw.Engine.output_arrays))
    [ ( "both branches",
        "if (A[i] > 3) { B[i] = A[i] + 1; } else { B[i] = A[i] - 1; }",
        [| 0; 6; 1; 7; 2; 8; 5; 9 |] );
      ( "overwritten",
        "B[i] = A[i] + 1; if (A[i] > 3) { B[i] = A[i] * 2; }",
        [| 2; 10; 3; 12; 4; 14; 8; 16 |] ) ]

(* C keeps an element's old value on a path that does not write it; the
   output stream cannot, so scalar replacement rejects the kernel. *)
let test_partial_write_rejected () =
  match
    Driver.compile ~entry:"k"
      (conditional_write_source "if (A[i] > 3) { B[i] = A[i] + 1; }")
  with
  | _ -> Alcotest.fail "a write on one path only compiled"
  | exception Driver.Error msg ->
    Alcotest.(check string) "message"
      "scalar-replacement: scalar replacement: array B: the element at \
       offset +0 is written on some paths only; write it on every path (C \
       would keep its old value)"
      msg

(* A lowering failure names its pass and its layer once each. *)
let test_lowering_error_message () =
  let src =
    "void k(int A[8], int B[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) { int T[2]; T[0] = A[i]; B[i] = T[0]; }\n\
     }\n"
  in
  match Driver.compile ~entry:"k" src with
  | _ -> Alcotest.fail "a local array in the kernel loop compiled"
  | exception Driver.Error msg ->
    Alcotest.(check string) "message"
      "lower-to-suifvm: lowering: unsupported local declaration T" msg

(* ------------------------------------------------------------------ *)
(* Golden behaviour checks                                              *)
(* ------------------------------------------------------------------ *)

let test_bit_correlator_golden () =
  let b = Kernels.bit_correlator in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let x = List.assoc "X" arrays in
  let out = List.assoc "C" r.Roccc_hw.Engine.output_arrays in
  Array.iteri
    (fun i v ->
      let want =
        Behaviour.bit_correlator
          ~mask:(Int64.of_int Kernels.bit_correlator_mask) x.(i)
      in
      Alcotest.(check int64) (Printf.sprintf "count[%d]" i) want v)
    out

let test_udiv_golden () =
  let b = Kernels.udiv in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let n = List.assoc "N" arrays and d = List.assoc "D" arrays in
  let q = List.assoc "Q" r.Roccc_hw.Engine.output_arrays in
  let rem = List.assoc "R" r.Roccc_hw.Engine.output_arrays in
  Array.iteri
    (fun i _ ->
      let wq, wr = Behaviour.udiv n.(i) d.(i) in
      Alcotest.(check int64) (Printf.sprintf "q[%d]" i) wq q.(i);
      Alcotest.(check int64) (Printf.sprintf "r[%d]" i) wr rem.(i))
    q

let test_sqrt_golden () =
  let b = Kernels.square_root in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let x = List.assoc "X" arrays in
  let s = List.assoc "S" r.Roccc_hw.Engine.output_arrays in
  Array.iteri
    (fun i v ->
      Alcotest.(check int64)
        (Printf.sprintf "sqrt[%d] of %Ld" i x.(i))
        (Behaviour.isqrt x.(i))
        v)
    s

let test_cos_golden () =
  let b = Kernels.cos_kernel in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let x = List.assoc "X" arrays in
  let y = List.assoc "Y" r.Roccc_hw.Engine.output_arrays in
  Array.iteri
    (fun i v ->
      let want =
        Roccc_hir.Lut_conv.lookup Kernels.cos_table x.(i)
      in
      Alcotest.(check int64) (Printf.sprintf "cos[%d]" i) want v)
    y

let test_dct_golden () =
  (* kernels' coefficient table must agree with the behavioural model *)
  Alcotest.(check bool) "coefficient tables agree" true
    (Kernels.dct8_coeff = Behaviour.dct8_coeff);
  let b = Kernels.dct in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let x = List.assoc "X" arrays in
  let y = List.assoc "Y" r.Roccc_hw.Engine.output_arrays in
  let want = Behaviour.dct8 x in
  Alcotest.(check (list int64)) "dct outputs"
    (Array.to_list want) (Array.to_list y)

let test_fir_golden () =
  let b = Kernels.fir in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let r = Driver.simulate ~arrays c in
  let a = List.assoc "A" arrays in
  let out = List.assoc "C" r.Roccc_hw.Engine.output_arrays in
  let want = Behaviour.fir a in
  for i = 0 to 59 do
    Alcotest.(check int64) (Printf.sprintf "fir[%d]" i) want.(i) out.(i)
  done

(* ------------------------------------------------------------------ *)
(* Driver-level behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_pass_trace () =
  let c = Kernels.compile Kernels.fir in
  let trace = c.Driver.pass_trace in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("pass " ^ expected) true
        (List.mem expected trace))
    [ "parse"; "semantic-check"; "inline"; "constant-fold";
      "scalar-replacement"; "feedback-detection"; "lower-to-suifvm";
      "ssa-and-cfg"; "datapath-build"; "bit-width-inference"; "pipelining";
      "vhdl-generation"; "area-estimation" ]

let test_dct_is_block_kernel () =
  (* DCT fully unrolls to a block kernel producing 8 outputs per cycle
     (paper §5: "ROCCC's throughput is eight output data per clock cycle"). *)
  let c = Kernels.compile Kernels.dct in
  Alcotest.(check int) "no loops" 0 (List.length c.Driver.kernel.Roccc_hir.Kernel.loops);
  Alcotest.(check int) "8 outputs" 8
    (List.length c.Driver.kernel.Roccc_hir.Kernel.outputs)

let test_width_ablation_reduces_area () =
  let b = Kernels.fir in
  let with_inference = Kernels.compile b in
  let without =
    Driver.compile
      ~options:
        { (b.Kernels.tune Driver.default_options) with
          Driver.disabled_passes = [ "bit-width-inference" ] }
      ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
  in
  Alcotest.(check bool)
    (Printf.sprintf "inferred %d <= declared %d slices"
       with_inference.Driver.area.Roccc_fpga.Area.slices
       without.Driver.area.Roccc_fpga.Area.slices)
    true
    (with_inference.Driver.area.Roccc_fpga.Area.slices
    <= without.Driver.area.Roccc_fpga.Area.slices)

let test_quick_estimate_close () =
  (* The fast estimator (paper ref [13]) lands near the full model. *)
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let c = Kernels.compile b in
        let full = c.Driver.area.Roccc_fpga.Area.slices in
        let quick = Roccc_fpga.Area.quick_estimate c.Driver.dp in
        let ratio = float_of_int quick /. float_of_int (max 1 full) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: quick %d vs full %d" name quick full)
          true
          (ratio > 0.2 && ratio < 5.0))
    [ "fir"; "bit_correlator"; "mul_acc" ]

let test_area_positive_and_ordered () =
  (* Bigger kernels cost more slices: bit_correlator < udiv < square_root. *)
  let slices name =
    match Kernels.find name with
    | Some b -> (Kernels.compile b).Driver.area.Roccc_fpga.Area.slices
    | None -> Alcotest.fail "missing"
  in
  let bc = slices "bit_correlator" in
  let ud = slices "udiv" in
  let sq = slices "square_root" in
  Alcotest.(check bool) "all positive" true (bc > 0 && ud > 0 && sq > 0);
  Alcotest.(check bool)
    (Printf.sprintf "ordering %d < %d < %d" bc ud sq)
    true
    (bc < ud && ud < sq)

let test_paper_table_complete () =
  Alcotest.(check int) "9 published rows" 9
    (List.length Baselines.paper_table1);
  List.iter
    (fun (r : Baselines.row) ->
      Alcotest.(check bool) (r.Baselines.name ^ " has a model") true
        (Option.is_some (Baselines.model r.Baselines.name)))
    Baselines.paper_table1

let test_behaviour_wavelet_invertible_shape () =
  (* One level of the (5,3) transform keeps the sample count. *)
  let img = Array.init (8 * 8) (fun i -> Int64.of_int (i * 5 mod 97)) in
  let out = Behaviour.wavelet53_2d ~rows:8 ~cols:8 img in
  Alcotest.(check int) "same size" 64 (Array.length out)

let test_mul_acc_uses_mux_not_branch_in_dp () =
  (* the nd condition becomes mux/pipe hard nodes *)
  let c = Kernels.compile Kernels.mul_acc in
  let has_mux =
    List.exists
      (fun (n : Roccc_datapath.Graph.node) ->
        match n.Roccc_datapath.Graph.node_kind with
        | Roccc_datapath.Graph.Mux_node _ -> true
        | _ -> false)
      c.Driver.dp.Roccc_datapath.Graph.nodes
  in
  Alcotest.(check bool) "mux node present" true has_mux

(* The one hw-vs-sw comparison reports a length mismatch (instead of
   indexing past the shorter array), an element that differs, and every
   software output the hardware never wrote, but not an input array. *)
let test_compare_outputs () =
  let sw =
    { Roccc_cfront.Interp.return_value = None;
      pointer_outputs = [ "y", 5L ];
      arrays =
        [ "A", [| 1L; 2L |]; "C", [| 1L; 2L |]; "E", [| 7L |];
          "D", [| 0L |] ] }
  in
  Alcotest.(check (list string)) "every difference"
    [ "C: hw has 3 elements, sw 2";
      "E[0]: hw=8 sw=7";
      "hw never wrote array D";
      "hw never wrote scalar y" ]
    (Driver.compare_outputs ~inputs:[ "A" ]
       ~hw_arrays:[ "C", [| 1L; 2L; 3L |]; "E", [| 8L |] ]
       ~hw_scalars:[] sw);
  Alcotest.(check (list string)) "equal outputs" []
    (Driver.compare_outputs ~inputs:[ "A"; "D" ]
       ~hw_arrays:[ "C", [| 1L; 2L |]; "E", [| 7L |] ]
       ~hw_scalars:[ "y", 5L ] sw)

let suites =
  [ "core.table1-kernels",
    (List.map
       (fun name ->
         Alcotest.test_case (name ^ " compiles & verifies") `Quick
           (test_bench name))
       [ "bit_correlator"; "mul_acc"; "udiv"; "square_root"; "cos";
         "arbitrary_lut"; "fir"; "dct"; "wavelet" ]
    @ [ Alcotest.test_case "wavelet_cols compiles & verifies" `Quick
          test_wavelet_cols;
        Alcotest.test_case "callee locals stay private" `Quick
          test_callee_locals_private;
        Alcotest.test_case "return truncated to its kind" `Quick
          test_return_truncated;
        Alcotest.test_case "array writes on every path" `Quick
          test_conditional_writes;
        Alcotest.test_case "array write on one path rejected" `Quick
          test_partial_write_rejected;
        Alcotest.test_case "hw/sw comparison reports every difference"
          `Quick test_compare_outputs ]);
    "core.golden",
    [ Alcotest.test_case "bit_correlator counts" `Quick
        test_bit_correlator_golden;
      Alcotest.test_case "udiv quotient/remainder" `Quick test_udiv_golden;
      Alcotest.test_case "square root" `Quick test_sqrt_golden;
      Alcotest.test_case "cos table" `Quick test_cos_golden;
      Alcotest.test_case "DCT" `Quick test_dct_golden;
      Alcotest.test_case "FIR" `Quick test_fir_golden ];
    "core.driver",
    [ Alcotest.test_case "pass trace (Figure 1)" `Quick test_pass_trace;
      Alcotest.test_case "DCT block kernel, 8 out/cycle" `Quick
        test_dct_is_block_kernel;
      Alcotest.test_case "bit-width ablation" `Quick
        test_width_ablation_reduces_area;
      Alcotest.test_case "quick area estimate" `Quick
        test_quick_estimate_close;
      Alcotest.test_case "area ordering" `Quick test_area_positive_and_ordered;
      Alcotest.test_case "paper table complete" `Quick
        test_paper_table_complete;
      Alcotest.test_case "wavelet behavioural shape" `Quick
        test_behaviour_wavelet_invertible_shape;
      Alcotest.test_case "mul_acc lowers branch to mux" `Quick
        test_mul_acc_uses_mux_not_branch_in_dp;
      Alcotest.test_case "lowering error message" `Quick
        test_lowering_error_message ] ]
