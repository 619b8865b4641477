(* Tests for the process-network subsystem: FIFO channels, the
   composition front end, rate analysis / FIFO sizing, the multi-engine
   co-simulator with backpressure, and the network VHDL top level. *)

open Roccc_buffers
open Roccc_net

let quiet_config () =
  { (Roccc_core.Pass.default_config ()) with
    Roccc_core.Pass.on_dump = (fun _ _ -> ()) }

let checked_config () =
  { (quiet_config ()) with
    Roccc_core.Pass.verify_ir = true;
    differential = true }

(* ------------------------------------------------------------------ *)
(* FIFO channel                                                        *)
(* ------------------------------------------------------------------ *)

(* The channel moves words between unboxed rows; one value at a time. *)
let push f v = Fifo.push f (Roccc_util.Words.of_array [| v |]) 0

let pop f =
  let w = Roccc_util.Words.create 1 in
  if Fifo.pop f w 0 then Some w.{0} else None

let test_fifo_basic () =
  let f = Fifo.create ~name:"ch" ~depth:3 in
  Alcotest.(check int) "empty length" 0 (Fifo.length f);
  Alcotest.(check int) "empty space" 3 (Fifo.space f);
  Alcotest.(check bool) "is_empty" true (Fifo.is_empty f);
  Alcotest.(check (option int64)) "pop empty" None (pop f);
  push f 10L;
  push f 20L;
  Alcotest.(check int) "length 2" 2 (Fifo.length f);
  Alcotest.(check int) "space 1" 1 (Fifo.space f);
  Alcotest.(check (option int64)) "fifo order" (Some 10L) (pop f);
  push f 30L;
  push f 40L;
  Alcotest.(check bool) "is_full" true (Fifo.is_full f);
  Alcotest.(check (option int64)) "pop 20" (Some 20L) (pop f);
  Alcotest.(check (option int64)) "pop 30" (Some 30L) (pop f);
  Alcotest.(check (option int64)) "pop 40" (Some 40L) (pop f);
  Alcotest.(check int) "pushed counter" 4 f.Fifo.pushed;
  Alcotest.(check int) "popped counter" 4 f.Fifo.popped;
  Alcotest.(check int) "high water" 3 f.Fifo.high_water

let test_fifo_guards () =
  (match Fifo.create ~name:"bad" ~depth:0 with
  | exception Fifo.Error _ -> ()
  | _ -> Alcotest.fail "depth 0 accepted");
  let f = Fifo.create ~name:"tiny" ~depth:1 in
  push f 1L;
  (match push f 2L with
  | exception Fifo.Error _ -> ()
  | () -> Alcotest.fail "push into a full channel accepted");
  Fifo.note_full_stall f;
  Fifo.note_empty_stall f;
  Fifo.note_empty_stall f;
  Alcotest.(check int) "full stalls" 1 f.Fifo.full_stalls;
  Alcotest.(check int) "empty stalls" 2 f.Fifo.empty_stalls

(* ------------------------------------------------------------------ *)
(* Front end: the composition form                                     *)
(* ------------------------------------------------------------------ *)

let test_pipeline_parse () =
  let pls = Net.pipelines_of_source Net.gallery_source in
  Alcotest.(check int) "one pipeline" 1 (List.length pls);
  let pl = List.hd pls in
  Alcotest.(check string) "name" "firsmooth" pl.Roccc_cfront.Ast.pl_name;
  Alcotest.(check (list string))
    "stages" [ "fir"; "smooth" ] pl.Roccc_cfront.Ast.pl_stages;
  (* the pretty printer round-trips the declaration *)
  let printed =
    Roccc_cfront.Pretty.program_to_string
      (Roccc_cfront.Parser.parse_program Net.gallery_source)
  in
  Alcotest.(check bool) "pretty prints decl" true
    (let needle = "pipeline firsmooth = fir -> smooth;" in
     let n = String.length needle and h = String.length printed in
     let rec go i = i + n <= h && (String.sub printed i n = needle || go (i + 1)) in
     go 0)

let test_pipeline_errors () =
  (match Net.find_pipeline ~name:"missing" Net.gallery_source with
  | exception Net.Error _ -> ()
  | _ -> Alcotest.fail "missing pipeline accepted");
  (* a one-stage pipeline is a parse error *)
  (match Net.pipelines_of_source "void f(int A[4], int B[2]) { int i; for (i=0;i<2;i=i+1) { B[i]=A[i]; } }\npipeline p = f;\n" with
  | exception Net.Error _ -> ()
  | _ -> Alcotest.fail "one-stage pipeline accepted");
  (* a stage that is not a kernel in the source *)
  (match Net.plan ~name:"ghost"
           (Net.gallery_source ^ "pipeline ghost = fir -> nothere;\n")
   with
  | exception Net.Error msg ->
    Alcotest.(check bool) "names the stage" true
      (let needle = "nothere" in
       let n = String.length needle and h = String.length msg in
       let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "unknown stage accepted")

(* ------------------------------------------------------------------ *)
(* Planning: rate analysis and FIFO sizing                             *)
(* ------------------------------------------------------------------ *)

let gallery_plan ?stage_options () =
  Net.plan ~config:(quiet_config ()) ?stage_options
    ~name:Net.gallery_pipeline Net.gallery_source

let test_plan_shape () =
  let net = gallery_plan () in
  Alcotest.(check int) "two stages" 2 (List.length net.Net.net_stages);
  Alcotest.(check int) "one channel" 1 (List.length net.Net.net_channels);
  let fir = List.hd net.Net.net_stages in
  let ch = List.hd net.Net.net_channels in
  Alcotest.(check string) "producer in" "A" fir.Net.sg_in_array;
  Alcotest.(check string) "producer out" "C" fir.Net.sg_out_array;
  Alcotest.(check int) "channel elements" 16 ch.Net.ch_elements;
  Alcotest.(check int) "producer rate" 1 ch.Net.ch_producer_rate;
  Alcotest.(check int) "consumer intake" 1 ch.Net.ch_consumer_intake;
  (* the sizing rule: depth = min(N, rate*(latency+1) + intake) *)
  let expect =
    min ch.Net.ch_elements
      ((ch.Net.ch_producer_rate * (ch.Net.ch_producer_latency + 1))
      + ch.Net.ch_consumer_intake)
  in
  Alcotest.(check int) "depth matches the rule" expect ch.Net.ch_depth;
  Alcotest.(check int) "min depth = depth" ch.Net.ch_depth ch.Net.ch_min_depth;
  (* the acceptance criterion: the sized FIFO beats the full buffer *)
  Alcotest.(check bool) "sized depth < full buffer" true
    (ch.Net.ch_depth < ch.Net.ch_elements)

let test_min_depth_rule () =
  Alcotest.(check int) "capped at elements" 8
    (Net.min_depth ~rate:4 ~latency:10 ~intake:2 ~elements:8);
  Alcotest.(check int) "rate*(lat+1)+intake" 11
    (Net.min_depth ~rate:2 ~latency:4 ~intake:1 ~elements:64)

(* ------------------------------------------------------------------ *)
(* Co-simulation vs the sequential composition                         *)
(* ------------------------------------------------------------------ *)

let test_network_verify () =
  (* under the checked config: IR verification + differential testing of
     every stage compile, then network co-sim vs sequential semantics *)
  let net =
    Net.plan ~config:(checked_config ()) ~name:Net.gallery_pipeline
      Net.gallery_source
  in
  let arrays = Net.gallery_arrays () in
  let diffs = Net.verify ~arrays net in
  Alcotest.(check (list string)) "network == sequential" [] diffs;
  (* and the simulated values really are the FIR+smooth composition *)
  let sim = Net.simulate ~arrays net in
  let e = List.assoc "E" sim.Net.nr_output_arrays in
  let a = List.assoc "A" arrays in
  let fir i =
    Int64.to_int a.(i) * 3 + (5 * Int64.to_int a.(i + 1))
    + (7 * Int64.to_int a.(i + 2))
    + (9 * Int64.to_int a.(i + 3))
    - Int64.to_int a.(i + 4)
  in
  let expect i = Int64.of_int ((fir i + (2 * fir (i + 1)) + fir (i + 2)) asr 2) in
  Alcotest.(check int) "14 outputs" 14 (Array.length e);
  Array.iteri
    (fun i v ->
      Alcotest.(check int64) (Printf.sprintf "E[%d]" i) (expect i) v)
    e;
  (* every element crossed the channel exactly once *)
  let ch = List.hd sim.Net.nr_channels in
  Alcotest.(check int) "16 elements through the fifo" 16 ch.Net.cs_pushed;
  Alcotest.(check bool) "high water within depth" true
    (ch.Net.cs_high_water <= ch.Net.cs_depth)

let test_depth_one_backpressure () =
  (* stress: force the channel down to a single element. The producer
     must stall on credit, the consumer on data, and the result must
     still be byte-identical to the sequential composition. *)
  let net = gallery_plan () in
  let arrays = Net.gallery_arrays () in
  let diffs = Net.verify ~arrays ~depths:[ 1 ] net in
  Alcotest.(check (list string)) "depth 1 still correct" [] diffs;
  let sim = Net.simulate ~arrays ~depths:[ 1 ] net in
  let ch = List.hd sim.Net.nr_channels in
  Alcotest.(check int) "depth override" 1 ch.Net.cs_depth;
  Alcotest.(check bool) "high water <= 1" true (ch.Net.cs_high_water <= 1);
  Alcotest.(check bool) "producer stalled on full" true
    (ch.Net.cs_full_stalls > 0);
  Alcotest.(check int) "still 16 elements" 16 ch.Net.cs_pushed;
  (* a throttled network takes longer than the sized one *)
  let sized = Net.simulate ~arrays net in
  Alcotest.(check bool) "sized run is faster" true
    (sized.Net.nr_cycles < sim.Net.nr_cycles)

let test_rate_mismatch () =
  (* producer faster than consumer: unroll fir by 2 with a 2-element bus
     (2 outputs per launch) against a bus-1 smooth. The producer must
     hit full-stalls and the output must stay correct. *)
  let opts = Roccc_core.Driver.default_options in
  let fast =
    { opts with
      Roccc_core.Driver.unroll_outer_factor = 2;
      bus_elements = 2 }
  in
  let net =
    gallery_plan ~stage_options:[ "fir", fast ] ()
  in
  let ch = List.hd net.Net.net_channels in
  Alcotest.(check int) "unrolled producer rate" 2 ch.Net.ch_producer_rate;
  let arrays = Net.gallery_arrays () in
  let diffs = Net.verify ~arrays net in
  Alcotest.(check (list string)) "mismatched rates still correct" [] diffs;
  (* throttle the channel to one burst to expose sustained mismatch *)
  let tight = ch.Net.ch_producer_rate in
  let diffs = Net.verify ~arrays ~depths:[ tight ] net in
  Alcotest.(check (list string)) "tight channel still correct" [] diffs;
  let sim = Net.simulate ~arrays ~depths:[ tight ] net in
  let cs = List.hd sim.Net.nr_channels in
  Alcotest.(check bool) "producer stalled" true (cs.Net.cs_full_stalls > 0)

let test_deadlock_rejected () =
  let opts = Roccc_core.Driver.default_options in
  let fast =
    { opts with
      Roccc_core.Driver.unroll_outer_factor = 2;
      bus_elements = 2 }
  in
  let net = gallery_plan ~stage_options:[ "fir", fast ] () in
  match Net.simulate ~arrays:(Net.gallery_arrays ()) ~depths:[ 1 ] net with
  | exception Net.Error msg ->
    Alcotest.(check bool) "names the deadlock" true
      (let needle = "deadlock" in
       let n = String.length needle and h = String.length msg in
       let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "sub-burst depth accepted"

(* ------------------------------------------------------------------ *)
(* Golden dump                                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_describe () =
  let net =
    Net.plan ~config:(checked_config ()) ~name:Net.gallery_pipeline
      Net.gallery_source
  in
  let got = Net.describe net in
  let want = read_file "golden/stream.net.txt" in
  Alcotest.(check string) "golden network plan (tools/gen_golden.ml)" want got

(* ------------------------------------------------------------------ *)
(* VHDL top level                                                      *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_network_vhdl () =
  let net = gallery_plan () in
  let vhdl = Net.network_vhdl net in
  Alcotest.(check bool) "fifo entity" true
    (contains vhdl "entity roccc_fifo is");
  Alcotest.(check bool) "net entity" true
    (contains vhdl "entity firsmooth_net is");
  let ch = List.hd net.Net.net_channels in
  Alcotest.(check bool) "sized depth generic" true
    (contains vhdl (Printf.sprintf "depth => %d" ch.Net.ch_depth));
  Alcotest.(check bool) "fifo instance" true (contains vhdl "entity work.roccc_fifo");
  (* both stage systems instantiated *)
  Alcotest.(check bool) "fir stage" true (contains vhdl "entity work.fir_dp_system");
  Alcotest.(check bool) "smooth stage" true (contains vhdl "entity work.smooth_dp_system");
  (* wr gating: producer writes only while running and with space *)
  Alcotest.(check bool) "wr gated on full" true
    (contains vhdl "ch0_wr <= (not st0_done) and (not ch0_full);")

let suites =
  [ ( "net",
      [ Alcotest.test_case "fifo basic" `Quick test_fifo_basic;
        Alcotest.test_case "fifo guards" `Quick test_fifo_guards;
        Alcotest.test_case "pipeline parse" `Quick test_pipeline_parse;
        Alcotest.test_case "pipeline errors" `Quick test_pipeline_errors;
        Alcotest.test_case "plan shape" `Quick test_plan_shape;
        Alcotest.test_case "min depth rule" `Quick test_min_depth_rule;
        Alcotest.test_case "network verify" `Quick test_network_verify;
        Alcotest.test_case "depth-1 backpressure" `Quick
          test_depth_one_backpressure;
        Alcotest.test_case "rate mismatch" `Quick test_rate_mismatch;
        Alcotest.test_case "deadlock rejected" `Quick test_deadlock_rejected;
        Alcotest.test_case "golden describe" `Quick test_golden_describe;
        Alcotest.test_case "network vhdl" `Quick test_network_vhdl ] ) ]
