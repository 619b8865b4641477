(* Tests for the self-checking VHDL testbench generator. *)

module Driver = Roccc_core.Driver
module Testbench = Roccc_core.Testbench
module Kernels = Roccc_core.Kernels

let contains needle hay =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let count needle hay =
  let re = Str.regexp_string needle in
  let rec loop pos acc =
    match Str.search_forward re hay pos with
    | exception Not_found -> acc
    | i -> loop (i + String.length needle) (acc + 1)
  in
  loop 0 0

let fir_src =
  "void fir(int8 A[12], int16 C[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i++) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

let test_testbench_structure () =
  let c = Driver.compile ~entry:"fir" fir_src in
  let arrays = [ "A", Array.init 12 (fun i -> Int64.of_int (i - 6)) ] in
  let tb = Testbench.generate ~arrays c in
  Alcotest.(check bool) "entity" true (contains "entity fir_dp_tb is" tb);
  Alcotest.(check bool) "instantiates dut" true
    (contains "dut : entity work.fir_dp" tb);
  Alcotest.(check bool) "clock generator" true
    (contains "clk <= not clk after 5 ns;" tb);
  (* one assertion per iteration per output: 8 iterations, 1 output *)
  Alcotest.(check int) "8 assertions" 8 (count "assert Tmp0 = " tb);
  Alcotest.(check bool) "finishes" true
    (contains "report \"testbench finished\"" tb)

let test_testbench_expected_values_match_interp () =
  (* the asserted constants are exactly the interpreter's outputs *)
  let c = Driver.compile ~entry:"fir" fir_src in
  let arrays = [ "A", Array.init 12 (fun i -> Int64.of_int ((i * 7) - 20)) ] in
  let tb = Testbench.generate ~arrays c in
  let o = Driver.interpret ~arrays c in
  let expected = List.assoc "C" o.Roccc_cfront.Interp.arrays in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "iteration %d expects %Ld" i v)
        true
        (contains (Printf.sprintf "to_signed(%Ld, 16)" v) tb))
    expected

let test_testbench_multi_output () =
  (* the two-filter FIR asserts both ports *)
  let b = Kernels.fir in
  let c = Kernels.compile b in
  let arrays = b.Kernels.arrays () in
  let tb = Testbench.generate ~arrays c in
  Alcotest.(check bool) "asserts C" true (contains "assert Tmp0" tb);
  Alcotest.(check bool) "asserts E" true (contains "assert Tmp1" tb)

let test_testbench_feedback_kernel () =
  (* accumulator: expected values thread the feedback correctly *)
  let src =
    "int sum = 0;\n\
     void acc(int A[6], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 6; i++) { sum = sum + A[i]; }\n\
    \  *out = sum;\n\
     }"
  in
  let c = Driver.compile ~entry:"acc" src in
  let arrays = [ "A", [| 1L; 2L; 3L; 4L; 5L; 6L |] ] in
  let tb = Testbench.generate ~arrays c in
  (* running sums 1, 3, 6, 10, 15, 21 appear as expected values *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "partial sum %d asserted" v)
        true
        (contains (Printf.sprintf "to_signed(%d, 32)" v) tb))
    [ 1; 3; 6; 10; 15; 21 ]

let test_testbench_missing_input_rejected () =
  let c = Driver.compile ~entry:"fir" fir_src in
  match Testbench.generate ~arrays:[] c with
  | exception Roccc_util.Diag.Error { where = "testbench"; _ } -> ()
  | _ -> Alcotest.fail "expected missing-array error"

let suites =
  [ "core.testbench",
    [ Alcotest.test_case "structure" `Quick test_testbench_structure;
      Alcotest.test_case "expected values = interpreter" `Quick
        test_testbench_expected_values_match_interp;
      Alcotest.test_case "multiple outputs" `Quick test_testbench_multi_output;
      Alcotest.test_case "feedback kernel" `Quick
        test_testbench_feedback_kernel;
      Alcotest.test_case "missing input rejected" `Quick
        test_testbench_missing_input_rejected ] ]
