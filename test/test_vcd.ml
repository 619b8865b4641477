(* Tests for the VCD waveform dump of execution-model runs. *)

module Driver = Roccc_core.Driver
module Vcd = Roccc_hw.Vcd
module Engine = Roccc_hw.Engine
module Kernels = Roccc_core.Kernels

let contains needle hay =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let fir_src =
  "void fir(int8 A[12], int16 C[8]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i++) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

let simulate () =
  let c = Driver.compile ~entry:"fir" fir_src in
  let arrays = [ "A", Array.init 12 (fun i -> Int64.of_int (i + 1)) ] in
  c, Driver.simulate ~arrays c

let test_vcd_structure () =
  let c, r = simulate () in
  let dump = Vcd.of_simulation ~design:"fir" c.Driver.kernel r in
  let text = Vcd.render dump in
  Alcotest.(check bool) "timescale" true (contains "$timescale" text);
  Alcotest.(check bool) "scope" true (contains "$scope module fir" text);
  Alcotest.(check bool) "controller var" true
    (contains "controller_state" text);
  Alcotest.(check bool) "window input var" true (contains " A0 $end" text);
  Alcotest.(check bool) "output var" true (contains " Tmp0 $end" text);
  Alcotest.(check bool) "definitions closed" true
    (contains "$enddefinitions $end" text)

let test_vcd_launch_retire_traces () =
  let _c, r = simulate () in
  let launch_trace = Lazy.force r.Engine.launch_trace in
  let retire_trace = Lazy.force r.Engine.retire_trace in
  Alcotest.(check int) "8 launches traced" 8
    (List.length launch_trace);
  Alcotest.(check int) "8 retires traced" 8
    (List.length retire_trace);
  (* each retirement happens exactly latency cycles after its launch *)
  List.iter2
    (fun (lc, _) (rc, _) ->
      Alcotest.(check int) "latency gap" r.Engine.pipeline_latency (rc - lc))
    launch_trace retire_trace;
  (* retired values are the FIR results in order *)
  let first_out = snd (List.hd retire_trace) in
  (* inputs 1..12: C[0] = 3*1+5*2+7*3+9*4-5 = 65 *)
  Alcotest.(check int64) "first result" 65L (List.assoc "Tmp0" first_out)

let test_vcd_value_lines () =
  let c, r = simulate () in
  let dump = Vcd.of_simulation ~design:"fir" c.Driver.kernel r in
  let text = Vcd.render dump in
  (* 65 in 16 bits *)
  Alcotest.(check bool) "first output value present" true
    (contains "b0000000001000001 " text);
  (* controller reaches done (state 4 = b100) *)
  Alcotest.(check bool) "done state" true (contains "b100 !" text)

let test_vcd_rejects_disorder () =
  let bad =
    { Vcd.design = "x";
      timescale_ns = 10;
      signals =
        [ { Vcd.sig_name = "s"; sig_bits = 8; changes = [ 5, 1L; 3, 2L ] } ];
      end_cycle = 10 }
  in
  match Vcd.render bad with
  | exception Vcd.Error _ -> ()
  | _ -> Alcotest.fail "expected out-of-order rejection"

let test_vcd_ident_uniqueness () =
  (* identifier generator yields distinct ids for the first few hundred *)
  let ids = List.init 300 Vcd.ident_of_index in
  Alcotest.(check int) "unique ids" 300
    (List.length (List.sort_uniq compare ids))

(* The whole dump of a benchmark run, pinned by digest: any change to what
   the engine launches, retires or reports as controller state, or to how
   the dump renders, shows up here. *)
let test_vcd_golden_digests () =
  let line (b : Kernels.benchmark) =
    let c = Kernels.compile b in
    let r =
      Driver.simulate ~scalars:b.Kernels.scalars ~arrays:(b.Kernels.arrays ()) c
    in
    let text =
      Vcd.render (Vcd.of_simulation ~design:c.Driver.entry c.Driver.kernel r)
    in
    Printf.sprintf "%s vcd=%s\n" b.Kernels.bench_name
      (Digest.to_hex (Digest.string text))
  in
  let ic = open_in_bin "golden/vcd.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "VCD digests (tools/gen_golden.ml)" want
    (line Kernels.fir ^ line Kernels.wavelet)

let suites =
  [ "hw.vcd",
    [ Alcotest.test_case "structure" `Quick test_vcd_structure;
      Alcotest.test_case "launch/retire traces" `Quick
        test_vcd_launch_retire_traces;
      Alcotest.test_case "value lines" `Quick test_vcd_value_lines;
      Alcotest.test_case "rejects out-of-order changes" `Quick
        test_vcd_rejects_disorder;
      Alcotest.test_case "identifier uniqueness" `Quick
        test_vcd_ident_uniqueness;
      Alcotest.test_case "golden digests" `Quick test_vcd_golden_digests ] ]
