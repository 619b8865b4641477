(* Unit coverage for the utility layer and small helpers that the property
   suites exercise only indirectly. *)

open Roccc_util

let test_id_gen () =
  let g = Id_gen.create () in
  Alcotest.(check int) "first" 0 (Id_gen.fresh g);
  Alcotest.(check int) "second" 1 (Id_gen.fresh g);
  Alcotest.(check int) "peek" 2 (Id_gen.peek g);
  Alcotest.(check int) "peek is not fresh" 2 (Id_gen.fresh g);
  Id_gen.reset g;
  Alcotest.(check int) "after reset" 0 (Id_gen.fresh g);
  let h = Id_gen.create ~start:10 () in
  Alcotest.(check int) "custom start" 10 (Id_gen.fresh h)

let test_bits_64_boundary () =
  (* width-64 operations must not shift out of range *)
  Alcotest.(check int64) "mask 64" (-1L) (Bits.mask 64);
  Alcotest.(check int64) "truncate unsigned 64 identity" (-1L)
    (Bits.truncate_unsigned 64 (-1L));
  Alcotest.(check int64) "truncate signed 64 identity" Int64.min_int
    (Bits.truncate_signed 64 Int64.min_int);
  Alcotest.(check int) "bits for -1 unsigned" 64 (Bits.bits_for_unsigned (-1L))

let test_bits_one_bit () =
  Alcotest.(check int64) "1-bit signed -1" (-1L) (Bits.truncate_signed 1 1L);
  Alcotest.(check int64) "1-bit signed 0" 0L (Bits.truncate_signed 1 2L);
  Alcotest.(check int64) "1-bit unsigned" 1L (Bits.truncate_unsigned 1 3L);
  Alcotest.(check int64) "min signed 1" (-1L) (Bits.min_value ~signed:true 1);
  Alcotest.(check int64) "max signed 1" 0L (Bits.max_value ~signed:true 1)

let test_bits_binary_string () =
  Alcotest.(check string) "5 in 4 bits" "0101" (Bits.to_binary_string ~width:4 5L);
  Alcotest.(check string) "-1 in 4 bits" "1111"
    (Bits.to_binary_string ~width:4 (-1L));
  Alcotest.(check string) "zero" "00000000" (Bits.to_binary_string ~width:8 0L)

let test_controller_lifecycle () =
  let open Roccc_buffers.Controller in
  let c = create ~total_iterations:2 ~pipeline_latency:1 in
  Alcotest.(check string) "starts idle" "idle" (state_name c.state);
  start c;
  Alcotest.(check string) "filling after start" "filling" (state_name c.state);
  note_launch c;
  step c;
  Alcotest.(check string) "steady after first launch" "steady"
    (state_name c.state);
  note_launch c;
  note_retire c;
  step c;
  Alcotest.(check string) "draining when all launched" "draining"
    (state_name c.state);
  note_retire c;
  step c;
  Alcotest.(check bool) "done when all retired" true (is_done c)

let test_instr_printing () =
  let open Roccc_vm in
  let k = Roccc_cfront.Ast.int32_kind in
  let i = Instr.make ~dst:5 Instr.Add [ 1; 2 ] k in
  Alcotest.(check string) "add text" "v5 = add v1, v2 :s32"
    (Instr.to_string i);
  let snx = { Instr.op = Instr.Snx "sum"; dst = None; srcs = [ 7 ]; kind = k } in
  Alcotest.(check string) "snx text" "snx[sum] v7 :s32" (Instr.to_string snx)

let suites =
  [ "util",
    [ Alcotest.test_case "id generator" `Quick test_id_gen;
      Alcotest.test_case "64-bit boundary" `Quick test_bits_64_boundary;
      Alcotest.test_case "1-bit kinds" `Quick test_bits_one_bit;
      Alcotest.test_case "binary rendering" `Quick test_bits_binary_string;
      Alcotest.test_case "controller lifecycle" `Quick
        test_controller_lifecycle;
      Alcotest.test_case "instruction printing" `Quick test_instr_printing ] ]
