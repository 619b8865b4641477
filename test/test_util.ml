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

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "length" 100 (Bitset.length b);
  Alcotest.(check bool) "fresh set is empty" true (Bitset.is_empty b);
  (* straddle the word boundary *)
  List.iter (Bitset.set b) [ 0; 62; 63; 99 ];
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 64" false (Bitset.mem b 64);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check (list int)) "elements ascending" [ 0; 62; 63; 99 ]
    (Bitset.elements b);
  Bitset.set b 62;
  Alcotest.(check int) "set is idempotent" 4 (Bitset.cardinal b);
  Bitset.clear b 62;
  Alcotest.(check (list int)) "after clear" [ 0; 63; 99 ] (Bitset.elements b);
  Alcotest.(check int) "fold counts members" 3
    (Bitset.fold (fun _ n -> n + 1) b 0)

let test_bitset_inplace_ops () =
  let a = Bitset.of_list 130 [ 1; 64; 127 ] in
  let b = Bitset.of_list 130 [ 64; 128 ] in
  let u = Bitset.copy a in
  Alcotest.(check bool) "union changed" true (Bitset.union_into ~dst:u b);
  Alcotest.(check (list int)) "union" [ 1; 64; 127; 128 ] (Bitset.elements u);
  Alcotest.(check bool) "union reached fixpoint" false
    (Bitset.union_into ~dst:u b);
  let i = Bitset.copy a in
  Alcotest.(check bool) "inter changed" true (Bitset.inter_into ~dst:i b);
  Alcotest.(check (list int)) "inter" [ 64 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Alcotest.(check bool) "diff changed" true (Bitset.diff_into ~dst:d b);
  Alcotest.(check (list int)) "diff" [ 1; 127 ] (Bitset.elements d);
  Alcotest.(check bool) "equal to a fresh copy" true
    (Bitset.equal a (Bitset.copy a));
  Alcotest.(check bool) "not equal" false (Bitset.equal a b);
  let blitted = Bitset.create 130 in
  Bitset.blit ~src:a ~dst:blitted;
  Alcotest.(check bool) "blit copies" true (Bitset.equal a blitted)

let test_bitset_fill_and_tail_bits () =
  (* 65 bits: one full word + one bit; fill_all must keep the unused high
     bits of the last word zero or cardinal/equal/iter all drift *)
  let b = Bitset.create 65 in
  Bitset.fill_all b;
  Alcotest.(check int) "fill_all cardinal" 65 (Bitset.cardinal b);
  Alcotest.(check bool) "last member present" true (Bitset.mem b 64);
  let empty = Bitset.create 65 in
  Alcotest.(check bool) "diff with empty is a no-op" false
    (Bitset.diff_into ~dst:b empty);
  Alcotest.(check int) "still full" 65 (Bitset.cardinal b);
  let also_full = Bitset.create 65 in
  Bitset.fill_all also_full;
  Alcotest.(check bool) "full = full" true (Bitset.equal b also_full);
  Bitset.clear_all b;
  Alcotest.(check bool) "clear_all empties" true (Bitset.is_empty b);
  (* iter visits in increasing order *)
  let c = Bitset.of_list 200 [ 199; 5; 63; 64; 0 ] in
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) c;
  Alcotest.(check (list int)) "iter ascending" [ 0; 5; 63; 64; 199 ]
    (List.rev !seen)

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

let test_proc_block_uses () =
  let open Roccc_vm in
  let proc = Proc.create "t" in
  let b = Proc.fresh_block proc in
  let k = Roccc_cfront.Ast.int32_kind in
  let r0 = Proc.fresh_reg proc k in
  let r1 = Proc.fresh_reg proc k in
  let r2 = Proc.fresh_reg proc k in
  b.Proc.instrs <- [ Instr.make ~dst:r2 Instr.Add [ r0; r1 ] k ];
  b.Proc.term <- Proc.Branch (r2, 0, 0);
  Alcotest.(check (list int)) "defs" [ r2 ] (Proc.block_defs b);
  Alcotest.(check (list int)) "uses include branch reg" [ r0; r1; r2 ]
    (List.sort compare (Proc.block_uses b))

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
      Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
      Alcotest.test_case "bitset in-place operators" `Quick
        test_bitset_inplace_ops;
      Alcotest.test_case "bitset fill and tail bits" `Quick
        test_bitset_fill_and_tail_bits;
      Alcotest.test_case "controller lifecycle" `Quick
        test_controller_lifecycle;
      Alcotest.test_case "block defs/uses" `Quick test_proc_block_uses;
      Alcotest.test_case "instruction printing" `Quick test_instr_printing ] ]
