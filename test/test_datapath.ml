(* Tests for data-path construction (Figures 5-7), pipelining and bit-width
   inference. *)

open Roccc_cfront
open Roccc_hir
open Roccc_vm
open Roccc_analysis
open Roccc_datapath

let if_else_source = Roccc_core.Kernels.paper_if_else_source

let fir_source = Roccc_core.Kernels.paper_fir_source

let acc_source = Roccc_core.Kernels.paper_acc_source

let datapath_of src name =
  let prog = Parser.parse_program src in
  let _ = Semant.check_program prog in
  let f = List.find (fun g -> g.Ast.fname = name) prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc = Lower.lower_kernel k in
  let _ = Ssa.convert proc in
  Ssa.verify proc;
  Builder.build proc

(* ------------------------------------------------------------------ *)
(* Structure (Figure 6)                                                *)
(* ------------------------------------------------------------------ *)

let count_kind dp pred =
  List.length (List.filter (fun (n : Graph.node) -> pred n.Graph.node_kind) dp.Graph.nodes)

let test_if_else_structure () =
  let dp = datapath_of if_else_source "if_else" in
  (* soft nodes: entry-block, then, else, join = 4 (paper nodes 1-4) *)
  Alcotest.(check int) "4 soft nodes" 4
    (count_kind dp (function Graph.Soft _ -> true | _ -> false));
  (* one mux hard node (paper node 7) *)
  Alcotest.(check int) "1 mux node" 1
    (count_kind dp (function Graph.Mux_node _ -> true | _ -> false));
  (* at least one pipe hard node (paper node 6) *)
  Alcotest.(check bool) "pipe node present" true
    (count_kind dp (function Graph.Pipe_node -> true | _ -> false) >= 1);
  Alcotest.(check int) "entry node" 1
    (count_kind dp (function Graph.Entry_node -> true | _ -> false));
  Alcotest.(check int) "exit node" 1
    (count_kind dp (function Graph.Exit_node -> true | _ -> false))

let test_if_else_mux_parallel_to_nothing () =
  (* The mux node's level is strictly after the branch level and before the
     join soft node's level. *)
  let dp = datapath_of if_else_source "if_else" in
  let level_of pred =
    List.find_map
      (fun (n : Graph.node) ->
        if pred n.Graph.node_kind then Some n.Graph.level else None)
      dp.Graph.nodes
  in
  let mux_level =
    Option.get (level_of (function Graph.Mux_node _ -> true | _ -> false))
  in
  let pipe_level =
    Option.get (level_of (function Graph.Pipe_node -> true | _ -> false))
  in
  Alcotest.(check int) "pipe runs alongside the branches" (mux_level - 1)
    pipe_level

let test_adjoining_invariant () =
  List.iter
    (fun (src, name) -> Builder.verify_adjoining (datapath_of src name))
    [ if_else_source, "if_else"; fir_source, "fir"; acc_source, "acc" ]

let test_straightline_no_hard_nodes () =
  let dp = datapath_of fir_source "fir" in
  Alcotest.(check int) "no mux nodes" 0
    (count_kind dp (function Graph.Mux_node _ -> true | _ -> false));
  Alcotest.(check int) "no pipe nodes" 0
    (count_kind dp (function Graph.Pipe_node -> true | _ -> false))

let test_nested_if_structure () =
  let src =
    "void nested(int x, int y, int* o) {\n\
    \  int r;\n\
    \  r = 0;\n\
    \  if (x > 0) {\n\
    \    if (y > 0) { r = x + y; } else { r = x - y; }\n\
    \  } else {\n\
    \    r = y;\n\
    \  }\n\
    \  *o = r;\n\
     }"
  in
  let dp = datapath_of src "nested" in
  Builder.verify_adjoining dp;
  (* two joins -> two mux nodes *)
  Alcotest.(check int) "2 mux nodes" 2
    (count_kind dp (function Graph.Mux_node _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Behaviour                                                           *)
(* ------------------------------------------------------------------ *)

let test_dp_eval_if_else () =
  let dp = datapath_of if_else_source "if_else" in
  let reference x1 x2 =
    let c = x1 - x2 in
    let a = if c < x2 then x1 * x1 else (x1 * x2) + 3 in
    Int64.of_int (c - a), Int64.of_int a
  in
  List.iter
    (fun (x1, x2) ->
      let r =
        Dp_eval.run dp
          ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      let w3, w4 = reference x1 x2 in
      Alcotest.(check int64) "x3" w3 (List.assoc "x3" r.Dp_eval.outputs);
      Alcotest.(check int64) "x4" w4 (List.assoc "x4" r.Dp_eval.outputs))
    [ 0, 0; 5, 3; 3, 5; -4, 10; 100, -100; 7, 7 ]

let test_dp_eval_speculative_division () =
  (* Division on the not-taken branch must not trap the whole data path. *)
  let src =
    "void sdiv(int x, int y, int* o) {\n\
    \  int r;\n\
    \  if (y != 0) { r = x / y; } else { r = 0; }\n\
    \  *o = r;\n\
     }"
  in
  let dp = datapath_of src "sdiv" in
  let r = Dp_eval.run dp ~inputs:[ "x", 10L; "y", 0L ] in
  Alcotest.(check int64) "guarded division" 0L (List.assoc "o" r.Dp_eval.outputs)

let test_dp_eval_accumulator_stream () =
  let dp = datapath_of acc_source "acc" in
  let stream = List.init 32 (fun i -> [ "A0", Int64.of_int i ]) in
  let rs = Dp_eval.run_stream dp stream in
  let last = List.nth rs 31 in
  Alcotest.(check int64) "final sum" 496L (List.assoc "Tmp0" last.Dp_eval.outputs)

let test_dp_conditional_accumulator () =
  (* mul_acc-style kernel: iterations with nd = 0 must NOT clobber the
     feedback register even though every hardware lane executes. *)
  let src =
    "int acc = 0;\n\
     void mul_acc(int A[8], int B[8], int ND[8], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i++) {\n\
    \    if (ND[i]) { acc = acc + A[i] * B[i]; }\n\
    \  }\n\
    \  *out = acc;\n\
     }"
  in
  let dp = datapath_of src "mul_acc" in
  let a = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let b = [| 10; 20; 30; 40; 50; 60; 70; 80 |] in
  let nd = [| 1; 0; 1; 0; 1; 0; 1; 0 |] in
  let stream =
    List.init 8 (fun i ->
        [ "A0", Int64.of_int a.(i); "B0", Int64.of_int b.(i);
          "ND0", Int64.of_int nd.(i) ])
  in
  let rs = Dp_eval.run_stream dp stream in
  let want =
    Array.to_list (Array.init 8 (fun i -> i))
    |> List.filter (fun i -> nd.(i) = 1)
    |> List.fold_left (fun s i -> s + (a.(i) * b.(i))) 0
  in
  let last = List.nth rs 7 in
  Alcotest.(check int64) "only nd=1 items accumulated" (Int64.of_int want)
    (List.assoc "Tmp0" last.Dp_eval.outputs)

let test_dp_matches_vm () =
  (* Data-path evaluation equals VM evaluation across inputs. *)
  let prog = Parser.parse_program if_else_source in
  let _ = Semant.check_program prog in
  let f = List.hd prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc_vm = Lower.lower_kernel k in
  let proc_dp = Lower.lower_kernel k in
  let _ = Ssa.convert proc_dp in
  let dp = Builder.build proc_dp in
  List.iter
    (fun (x1, x2) ->
      let inputs = [ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ] in
      let rv = Eval.run proc_vm ~inputs in
      let rd = Dp_eval.run dp ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "same outputs at (%d, %d)" x1 x2)
        true
        (List.sort compare rv.Eval.outputs
        = List.sort compare rd.Dp_eval.outputs))
    [ 1, 2; -3, 8; 0, 0; 250, -250 ]

(* ------------------------------------------------------------------ *)
(* Bit-width inference                                                 *)
(* ------------------------------------------------------------------ *)

let test_widths_comparison_is_one_bit () =
  let dp = datapath_of if_else_source "if_else" in
  let w = Widths.infer dp in
  (* find the slt result *)
  let slt_width =
    List.find_map
      (fun (n : Graph.node) ->
        List.find_map
          (fun (i : Instr.instr) ->
            match i.Instr.op, i.Instr.dst with
            | Instr.Slt, Some d -> Some (Widths.width w d)
            | _ -> None)
          n.Graph.instrs)
      dp.Graph.nodes
  in
  Alcotest.(check (option int)) "slt is 1 bit" (Some 1) slt_width

let test_widths_narrowing () =
  (* 8-bit inputs: a multiply should be inferred at 16 bits, far below the
     declared 32. *)
  let src = "void m(uint8 a, uint8 b, int* o) { *o = a * b; }" in
  let dp = datapath_of src "m" in
  let w = Widths.infer dp in
  let mul_width =
    List.find_map
      (fun (n : Graph.node) ->
        List.find_map
          (fun (i : Instr.instr) ->
            match i.Instr.op, i.Instr.dst with
            | Instr.Mul, Some d -> Some (Widths.width w d)
            | _ -> None)
          n.Graph.instrs)
      dp.Graph.nodes
  in
  Alcotest.(check (option int)) "8x8 multiply is 16 bits" (Some 16) mul_width

let test_widths_add_grows_one_bit () =
  let src = "void a(uint8 x, uint8 y, uint16* o) { *o = x + y; }" in
  let dp = datapath_of src "a" in
  let w = Widths.infer dp in
  let add_width =
    List.find_map
      (fun (n : Graph.node) ->
        List.find_map
          (fun (i : Instr.instr) ->
            match i.Instr.op, i.Instr.dst with
            | Instr.Add, Some d -> Some (Widths.width w d)
            | _ -> None)
          n.Graph.instrs)
      dp.Graph.nodes
  in
  Alcotest.(check (option int)) "8+8 is 9 bits" (Some 9) add_width

let test_widths_all_signals_covered () =
  let dp = datapath_of fir_source "fir" in
  let w = Widths.infer dp in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d ->
            let bits = Widths.width w d in
            Alcotest.(check bool) "1..64 bits" true (bits >= 1 && bits <= 64)
          | None -> ())
        n.Graph.instrs)
    dp.Graph.nodes

(* ------------------------------------------------------------------ *)
(* Pipelining                                                          *)
(* ------------------------------------------------------------------ *)

let pipeline_of src name =
  let dp = datapath_of src name in
  let w = Widths.infer dp in
  dp, w, Pipeline.build dp w

let test_pipeline_fir () =
  let _, _, p = pipeline_of fir_source "fir" in
  Alcotest.(check bool) "at least 2 stages" true (Pipeline.latency p >= 2);
  Alcotest.(check bool) "clock positive" true (p.Pipeline.clock_mhz > 0.0);
  Alcotest.(check bool) "stage delays within budget or single-op" true
    (Array.for_all
       (fun d -> d <= p.Pipeline.target_ns +. 10.0)
       p.Pipeline.stage_delays)

let test_pipeline_feedback_single_stage () =
  (* LPR and SNX of the accumulator share a stage (the feedback latch). *)
  let _, _, p = pipeline_of acc_source "acc" in
  let stages_of pred =
    List.filter_map
      (fun (si : Pipeline.staged_instr) ->
        if pred si.Pipeline.si.Instr.op then Some si.Pipeline.stage else None)
      p.Pipeline.instrs
  in
  let lpr = stages_of (function Instr.Lpr _ -> true | _ -> false) in
  let snx = stages_of (function Instr.Snx _ -> true | _ -> false) in
  Alcotest.(check bool) "lpr and snx present" true (lpr <> [] && snx <> []);
  List.iter
    (fun l ->
      List.iter
        (fun s -> Alcotest.(check int) "same stage" s l)
        snx)
    lpr;
  Alcotest.(check bool) "feedback bits counted" true
    (p.Pipeline.feedback_bits >= 32)

let test_pipeline_deeper_with_smaller_target () =
  let dp = datapath_of fir_source "fir" in
  let w = Widths.infer dp in
  let shallow = Pipeline.build ~target_ns:50.0 dp w in
  let deep = Pipeline.build ~target_ns:2.0 dp w in
  Alcotest.(check bool) "smaller budget -> more stages" true
    (Pipeline.latency deep >= Pipeline.latency shallow);
  Alcotest.(check bool) "smaller budget -> higher clock" true
    (deep.Pipeline.clock_mhz >= shallow.Pipeline.clock_mhz)

let test_pipeline_monotone_stages () =
  (* No instruction is staged before its operands. *)
  let _, _, p = pipeline_of if_else_source "if_else" in
  let stage_of_reg = Hashtbl.create 64 in
  List.iter
    (fun (si : Pipeline.staged_instr) ->
      match si.Pipeline.si.Instr.dst with
      | Some d -> Hashtbl.replace stage_of_reg d si.Pipeline.stage
      | None -> ())
    p.Pipeline.instrs;
  List.iter
    (fun (si : Pipeline.staged_instr) ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt stage_of_reg r with
          | Some s ->
            Alcotest.(check bool) "producer not later than consumer" true
              (s <= si.Pipeline.stage)
          | None -> ())
        si.Pipeline.si.Instr.srcs)
    p.Pipeline.instrs

(* ------------------------------------------------------------------ *)
(* Delay model                                                         *)
(* ------------------------------------------------------------------ *)

let delay_ns ?const_operands op k widths =
  (Delay.instr_delay ?const_operands op k widths).Delay.per_stage_ns

let test_delay_width_monotone () =
  let k = { Ast.signed = true; bits = 32 } in
  List.iter
    (fun op ->
      let d w = delay_ns op k [ w; w ] in
      Alcotest.(check bool) "8-bit <= 16-bit" true (d 8 <= d 16);
      Alcotest.(check bool) "16-bit <= 32-bit" true (d 16 <= d 32))
    [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Slt; Instr.Seq ]

let test_delay_const_mul_shift_add () =
  let k = { Ast.signed = true; bits = 16 } in
  let var = delay_ns Instr.Mul k [ 16; 16 ] in
  let cst =
    delay_ns ~const_operands:[ None; Some 5L ] Instr.Mul k
      [ 16; 16 ]
  in
  Alcotest.(check bool) "constant multiplier is cheaper" true (cst < var);
  (* x*5 = (x<<2)+x: two set bits, one adder level — exactly a 16-bit add *)
  let add = delay_ns Instr.Add k [ 16; 16 ] in
  Alcotest.(check (float 1e-9)) "one shift-add level" add cst

let test_delay_const_shift_free () =
  let k = { Ast.signed = false; bits = 16 } in
  let cst =
    delay_ns ~const_operands:[ None; Some 3L ] Instr.Shl k
      [ 16; 4 ]
  in
  Alcotest.(check (float 0.0)) "constant shift is wiring" 0.0 cst;
  let var = delay_ns Instr.Shl k [ 16; 4 ] in
  Alcotest.(check bool) "variable shift costs a barrel" true (var > 0.0);
  let mask =
    delay_ns ~const_operands:[ None; Some 255L ] Instr.Band k
      [ 16; 16 ]
  in
  Alcotest.(check (float 0.0)) "constant mask is wiring" 0.0 mask

(* ------------------------------------------------------------------ *)
(* Timed netlist + retiming                                            *)
(* ------------------------------------------------------------------ *)

let test_timing_mobility () =
  let dp = datapath_of fir_source "fir" in
  let w = Widths.infer dp in
  let tm = Timing.build ~target_ns:5.0 dp w in
  Alcotest.(check bool) "netlist non-empty" true (tm.Timing.instrs <> []);
  List.iter
    (fun (ti : Timing.tinstr) ->
      Alcotest.(check bool) "alap >= asap" true
        (ti.Timing.alap >= ti.Timing.asap);
      Alcotest.(check bool) "alap inside the schedule" true
        (ti.Timing.alap < tm.Timing.asap_stage_count);
      Alcotest.(check bool) "mobility non-negative" true
        (Timing.mobility ti >= 0))
    tm.Timing.instrs

let test_retiming_never_worse () =
  (* The ISSUE gate, as a unit test: at every clock target the retimed
     schedule spends no more latch bits than greedy placement, at the same
     depth and clock. *)
  List.iter
    (fun (src, name) ->
      let dp = datapath_of src name in
      let w = Widths.infer dp in
      List.iter
        (fun tns ->
          let greedy = Pipeline.build ~target_ns:tns ~retime:false dp w in
          let retimed = Pipeline.build ~target_ns:tns dp w in
          Pipeline.verify retimed;
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0fns: latch bits never increase" name tns)
            true
            (retimed.Pipeline.latch_bits <= greedy.Pipeline.latch_bits);
          Alcotest.(check int)
            (Printf.sprintf "%s@%.0fns: same depth" name tns)
            greedy.Pipeline.stage_count retimed.Pipeline.stage_count;
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0fns: clock no worse" name tns)
            true
            (retimed.Pipeline.clock_mhz >= greedy.Pipeline.clock_mhz -. 1e-6);
          Alcotest.(check int)
            (Printf.sprintf "%s@%.0fns: greedy bits recorded" name tns)
            greedy.Pipeline.latch_bits retimed.Pipeline.greedy_latch_bits)
        [ 3.0; 5.0; 8.0 ])
    [ fir_source, "fir"; acc_source, "acc"; if_else_source, "if_else" ];
  (* and the full compile at the default 5 ns target saves latch bits
     strictly on a gallery kernel (fir 89 -> 83, dct 726 -> 469) *)
  let module Driver = Roccc_core.Driver in
  let module Kernels = Roccc_core.Kernels in
  let saves (b : Kernels.benchmark) =
    let c =
      Driver.compile
        ~options:
          { (b.Kernels.tune Driver.default_options) with
            Driver.target_ns = 5.0 }
        ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
    in
    c.Driver.pipeline.Pipeline.latch_bits
    < c.Driver.pipeline.Pipeline.greedy_latch_bits
  in
  Alcotest.(check bool) "strict reduction at 5 ns on fir or dct" true
    (saves Kernels.fir || saves Kernels.dct)

let stages_of (p : Pipeline.t) =
  Array.of_list
    (List.map (fun (si : Pipeline.staged_instr) -> si.Pipeline.stage)
       p.Pipeline.instrs)

let test_retiming_fixpoint () =
  (* retiming an exact pipeline again changes no stage *)
  List.iter
    (fun (b : Roccc_core.Kernels.benchmark) ->
      let p = (Roccc_core.Kernels.compile b).Roccc_core.Driver.pipeline in
      let again = Pipeline.retime p in
      let name = b.Roccc_core.Kernels.bench_name in
      Alcotest.(check int) (name ^ ": no further moves")
        p.Pipeline.retime_moves again.Pipeline.retime_moves;
      Alcotest.(check int) (name ^ ": latch bits stable") p.Pipeline.latch_bits
        again.Pipeline.latch_bits;
      Alcotest.(check (array int)) (name ^ ": same stages") (stages_of p)
        (stages_of again))
    Roccc_core.Kernels.[ fir; udiv; dct; wavelet ]

let greedy_of (b : Roccc_core.Kernels.benchmark) =
  let c = Roccc_core.Kernels.compile b in
  let o = b.Roccc_core.Kernels.tune Roccc_core.Driver.default_options in
  Pipeline.build ~target_ns:o.Roccc_core.Driver.target_ns
    ~stage_budget:o.Roccc_core.Driver.stage_budget
    ~decomp:o.Roccc_core.Driver.decomp ~retime:false c.Roccc_core.Driver.dp
    c.Roccc_core.Driver.widths

let test_retiming_no_recovery_gap () =
  (* the stages read back from the flow's potentials realise the flow's
     optimum exactly, and retiming reaches it, on every paper kernel *)
  List.iter
    (fun (b : Roccc_core.Kernels.benchmark) ->
      let g = greedy_of b in
      let tm = g.Pipeline.timing in
      let budget = Array.fold_left Float.max 0.0 g.Pipeline.stage_delays in
      let out, optimum =
        Pipeline.exact_stages tm (stages_of g) ~stage_count:g.Pipeline.stage_count
          ~budget
      in
      let name = b.Roccc_core.Kernels.bench_name in
      Alcotest.(check int) (name ^ ": recovered = flow objective") optimum
        (Timing.latch_bits tm
           ~stage_of:(fun ti -> out.(ti.Timing.ti_index))
           ~stage_count:g.Pipeline.stage_count);
      let p = Pipeline.retime g in
      Pipeline.verify p;
      Alcotest.(check int) (name ^ ": retime reaches the optimum") optimum
        p.Pipeline.latch_bits)
    (Roccc_core.Kernels.gallery @ [ Roccc_core.Kernels.wavelet_cols ])

(* ---- exact retiming against brute force on random small netlists ----
   A netlist of at most 8 instructions in topological order over two
   external inputs, with random widths and delays, one pinned instruction
   (an LPR producer or an SNX consumer) and one two-stage operator; its
   greedy-like start staging has at most 3 stages and sets the budget. *)

type small_net = {
  sn_tm : Timing.t;
  sn_start : int array;
  sn_stages : int;
  sn_budget : float;
}

let ikind bits = { Ast.signed = false; bits }

let small_net_gen : small_net option QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 3 8 in
  let* pinned_at = int_range 0 (n - 1) in
  let* lpr = bool in
  let* offset = int_range 1 (n - 1) in
  let staged_at = (pinned_at + offset) mod n in
  let* picks = list_repeat n (pair (int_range 0 64) (int_range 0 64)) in
  let* two = list_repeat n bool in
  let* widths = list_repeat (n + 2) (int_range 1 16) in
  let* delays = list_repeat n (oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0 ]) in
  let* bumps = list_repeat n (int_range 0 1) in
  let* outs = list_repeat n (int_range 0 3) in
  return
    (let widths = Array.of_list widths in
     let proc = Proc.create "small" in
     let ext =
       List.init 2 (fun j -> Proc.fresh_reg proc (ikind widths.(n + j)))
     in
     let input_ports =
       List.mapi
         (fun j r ->
           { Proc.port_name = Printf.sprintf "x%d" j; port_reg = r;
             port_kind = ikind widths.(n + j) })
         ext
     in
     let dsts = ref [] and tis = ref [] in
     List.iteri
       (fun i ((a, b), (two, (d, _))) ->
         let pool = Array.of_list (ext @ List.rev !dsts) in
         let pick k = pool.(k mod Array.length pool) in
         let srcs = if two then [ pick a; pick b ] else [ pick a ] in
         let kind = ikind widths.(i) in
         let op, srcs, dst =
           if i = pinned_at && lpr then Instr.Lpr "f", [], true
           else if i = pinned_at then Instr.Snx "f", srcs, false
           else if i = staged_at then Instr.Mul, srcs, true
           else Instr.Add, srcs, true
         in
         let dst =
           if dst then begin
             let r = Proc.fresh_reg proc kind in
             dsts := r :: !dsts;
             Some r
           end
           else None
         in
         tis :=
           { Timing.ti = { Instr.op; dst; srcs; kind };
             ti_node = 0;
             ti_index = i;
             ti_delay = d;
             ti_stages = (if i = staged_at then 2 else 1);
             asap = 0;
             alap = 0 }
           :: !tis)
       (List.combine picks (List.combine two (List.combine delays bumps)));
     let tis = List.rev !tis in
     let producer = Hashtbl.create 16 and consumers = Hashtbl.create 16 in
     List.iter
       (fun (ti : Timing.tinstr) ->
         Option.iter (fun d -> Hashtbl.replace producer d ti) ti.Timing.ti.Instr.dst;
         List.iter
           (fun r ->
             let cur = Option.value (Hashtbl.find_opt consumers r) ~default:[] in
             if not (List.memq ti cur) then
               Hashtbl.replace consumers r (cur @ [ ti ]))
           ti.Timing.ti.Instr.srcs)
       tis;
     let output_ports =
       List.sort_uniq compare
         (List.filteri (fun i _ -> List.nth outs i = 0) (List.rev !dsts))
       |> List.mapi (fun j r ->
              { Proc.port_name = Printf.sprintf "y%d" j; port_reg = r;
                port_kind = Proc.reg_kind proc r })
     in
     let node =
       { Graph.id = 0; node_kind = Graph.Soft 0;
         instrs = List.map (fun (ti : Timing.tinstr) -> ti.Timing.ti) tis;
         level = 0 }
     in
     let dp =
       { Graph.proc; nodes = [ node ]; levels = [| [ node ] |]; input_ports;
         output_ports }
     in
     let tm =
       { Timing.dp; widths = Widths.declared dp; target_ns = 5.0;
         instrs = tis; producer; consumers; asap_stage_count = 1 }
     in
     (* a feasible start: each instruction just past its producers, plus
        a random bump *)
     let start = Array.make n 0 in
     List.iter
       (fun (ti : Timing.tinstr) ->
         let entry = if ti.Timing.ti_stages > 1 then 1 else 0 in
         let s =
           List.fold_left
             (fun acc r ->
               match Hashtbl.find_opt producer r with
               | Some p ->
                 max acc
                   (start.(p.Timing.ti_index)
                   + max (Timing.region_span p) entry)
               | None -> acc)
             0 ti.Timing.ti.Instr.srcs
         in
         start.(ti.Timing.ti_index) <- s + List.nth bumps ti.Timing.ti_index)
       tis;
     let stages =
       List.fold_left
         (fun acc (ti : Timing.tinstr) ->
           max acc (start.(ti.Timing.ti_index) + ti.Timing.ti_stages))
         1 tis
     in
     if stages > 3 then None
     else
       let budget =
         Array.fold_left Float.max 0.0
           (Timing.stage_delays tm
              ~stage_of:(fun ti -> start.(ti.Timing.ti_index))
              ~stage_count:stages)
       in
       Some { sn_tm = tm; sn_start = start; sn_stages = stages;
              sn_budget = budget })

(* Every constraint the retimer must keep, checked directly. *)
let feasible (sn : small_net) (pin : bool array) (st : int array) : bool =
  let tm = sn.sn_tm in
  List.for_all
    (fun (ti : Timing.tinstr) ->
      let i = ti.Timing.ti_index in
      let entry = if ti.Timing.ti_stages > 1 then 1 else 0 in
      st.(i) >= 0
      && st.(i) + ti.Timing.ti_stages <= sn.sn_stages
      && ((not pin.(i)) || st.(i) = sn.sn_start.(i))
      &&
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ -> true
      | _ ->
        List.for_all
          (fun r ->
            match Hashtbl.find_opt tm.Timing.producer r with
            | Some p ->
              st.(i)
              >= st.(p.Timing.ti_index) + max (Timing.region_span p) entry
            | None -> true)
          ti.Timing.ti.Instr.srcs)
    tm.Timing.instrs
  && Array.for_all
       (fun d -> d <= sn.sn_budget +. 1e-9)
       (Timing.stage_delays tm
          ~stage_of:(fun ti -> st.(ti.Timing.ti_index))
          ~stage_count:sn.sn_stages)

let bits_of (sn : small_net) (st : int array) =
  Timing.latch_bits sn.sn_tm
    ~stage_of:(fun ti -> st.(ti.Timing.ti_index))
    ~stage_count:sn.sn_stages

let brute_force (sn : small_net) (pin : bool array) : int =
  let n = Array.length sn.sn_start in
  let st = Array.copy sn.sn_start in
  let best = ref max_int in
  let rec go i =
    if i = n then begin
      if feasible sn pin st then best := min !best (bits_of sn st)
    end
    else if pin.(i) then go (i + 1)
    else
      for s = 0 to sn.sn_stages - 1 do
        st.(i) <- s;
        go (i + 1)
      done
  in
  go 0;
  !best

let prop_exact_matches_brute_force =
  QCheck.Test.make ~count:300
    ~name:"exact retiming = brute force on random small netlists"
    (QCheck.make small_net_gen ~print:(function
       | None -> "(discarded)"
       | Some sn ->
         String.concat "\n"
           (List.map
              (fun (ti : Timing.tinstr) ->
                Printf.sprintf "%d: %s  delay %.1f  stages %d  start %d"
                  ti.Timing.ti_index (Instr.to_string ti.Timing.ti)
                  ti.Timing.ti_delay ti.Timing.ti_stages
                  sn.sn_start.(ti.Timing.ti_index))
              sn.sn_tm.Timing.instrs)))
    (function
      | None -> QCheck.assume_fail ()
      | Some sn ->
        let pin = Pipeline.pinned sn.sn_tm in
        let out, optimum =
          Pipeline.exact_stages sn.sn_tm sn.sn_start ~stage_count:sn.sn_stages
            ~budget:sn.sn_budget
        in
        feasible sn pin out
        && bits_of sn out = optimum
        && optimum = brute_force sn pin)

(* ------------------------------------------------------------------ *)
(* Verify rejects corrupted stagings                                   *)
(* ------------------------------------------------------------------ *)

let expect_pipeline_error needle f =
  match f () with
  | () -> Alcotest.failf "expected a pipelining error mentioning %S" needle
  | exception Roccc_util.Diag.Error { where = "pipelining"; msg; _ } ->
    let found =
      try
        ignore (Str.search_forward (Str.regexp_string needle) msg 0);
        true
      with Not_found -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg needle)
      true found

let test_verify_backward_edge () =
  let _, _, p = pipeline_of fir_source "fir" in
  Alcotest.(check bool) "needs >= 2 stages" true (p.Pipeline.stage_count >= 2);
  let producer = Hashtbl.create 16 in
  List.iter
    (fun (si : Pipeline.staged_instr) ->
      match si.Pipeline.si.Instr.dst with
      | Some d -> Hashtbl.replace producer d si
      | None -> ())
    p.Pipeline.instrs;
  (* push some producer past a same-stage consumer: the dataflow edge now
     points backward in time *)
  let victim =
    List.find_map
      (fun (si : Pipeline.staged_instr) ->
        List.find_map
          (fun r ->
            match Hashtbl.find_opt producer r with
            | Some prod
              when prod.Pipeline.stage = si.Pipeline.stage
                   && si.Pipeline.stage + 1 < p.Pipeline.stage_count ->
              Some prod
            | _ -> None)
          si.Pipeline.si.Instr.srcs)
      p.Pipeline.instrs
    |> Option.get
  in
  victim.Pipeline.stage <- victim.Pipeline.stage + 1;
  expect_pipeline_error "produced at stage" (fun () -> Pipeline.verify p)

let test_verify_split_feedback () =
  let _, _, p = pipeline_of acc_source "acc" in
  let snx =
    List.find
      (fun (si : Pipeline.staged_instr) ->
        match si.Pipeline.si.Instr.op with
        | Instr.Snx _ -> true
        | _ -> false)
      p.Pipeline.instrs
  in
  (* grow the schedule by one stage, then latch the SNX a stage after its
     LPR: the one-iteration-per-cycle contract is broken *)
  let p2 =
    { p with
      Pipeline.stage_count = p.Pipeline.stage_count + 1;
      stage_delays = Array.append p.Pipeline.stage_delays [| 0.0 |] }
  in
  snx.Pipeline.stage <- snx.Pipeline.stage + 1;
  expect_pipeline_error "latched across stages" (fun () ->
      Pipeline.verify p2)

let test_verify_latch_balance () =
  let _, _, p = pipeline_of fir_source "fir" in
  let p2 = { p with Pipeline.latch_bits = p.Pipeline.latch_bits + 7 } in
  expect_pipeline_error "latch bits out of balance" (fun () ->
      Pipeline.verify p2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_dp_matches_interp =
  QCheck.Test.make ~count:80
    ~name:"data path matches the C interpreter on if_else"
    QCheck.(pair (int_range (-2000) 2000) (int_range (-2000) 2000))
    (fun (x1, x2) ->
      let dp = datapath_of if_else_source "if_else" in
      let r =
        Dp_eval.run dp ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      let o =
        Interp.run_source if_else_source "if_else"
          ~scalars:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      List.assoc "x3" r.Dp_eval.outputs
      = List.assoc "x3" o.Interp.pointer_outputs
      && List.assoc "x4" r.Dp_eval.outputs
         = List.assoc "x4" o.Interp.pointer_outputs)

let prop_accumulator_stream_matches =
  QCheck.Test.make ~count:30
    ~name:"accumulator data path matches software over random streams"
    QCheck.(array_of_size (Gen.return 32) (int_range (-10000) 10000))
    (fun data ->
      let dp = datapath_of acc_source "acc" in
      let stream =
        Array.to_list (Array.map (fun v -> [ "A0", Int64.of_int v ]) data)
      in
      let rs = Dp_eval.run_stream dp stream in
      let last = List.nth rs 31 in
      let want = Array.fold_left ( + ) 0 data in
      Int64.equal
        (List.assoc "Tmp0" last.Dp_eval.outputs)
        (Int64.of_int want))

(* Prepared evaluator                                                  *)
(* ------------------------------------------------------------------ *)

module Kernels = Roccc_core.Kernels
module Driver = Roccc_core.Driver

(* Kernels with feedback (accumulator, mul_acc) and lookup tables (cos,
   arbitrary ROM), compiled once, with their own input arrays. *)
let prepared_cases =
  lazy
    (let of_bench (b : Kernels.benchmark) =
       Kernels.compile b, b.Kernels.arrays (), b.Kernels.scalars
     in
     [ ( Driver.compile ~entry:"acc" acc_source,
         [ ( "A",
             Array.init 32 (fun i -> Int64.of_int ((i * 7919 mod 2001) - 1000))
           ) ],
         [] );
       of_bench Kernels.mul_acc;
       of_bench Kernels.cos_kernel;
       of_bench Kernels.arbitrary_lut ])

(* Shuffle every input array, so the values stay in the kernel's range. *)
let shuffle seed arrays =
  let st = Random.State.make [| seed |] in
  List.map
    (fun (name, a) ->
      let a = Array.copy a in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      name, a)
    arrays

let prop_prepared_matches_fresh_runs =
  QCheck.Test.make ~count:40
    ~name:"one prepared evaluator over a stream equals a fresh run per element"
    QCheck.(pair (int_range 0 3) small_nat)
    (fun (k, seed) ->
      let c, arrays, scalars = List.nth (Lazy.force prepared_cases) k in
      let stream =
        Roccc_core.Testbench.iteration_inputs c ~arrays:(shuffle seed arrays)
          ~scalars
      in
      let luts = List.map Lut_conv.interp_binding c.Driver.luts in
      let dp = c.Driver.dp in
      let p = Dp_eval.prepare ~luts dp in
      let rec go fresh_fb prepared_fb = function
        | [] -> true
        | inputs :: rest ->
          let a = Dp_eval.run ~luts ~feedback_prev:fresh_fb dp ~inputs in
          let b = Dp_eval.run_prepared ~feedback_prev:prepared_fb p ~inputs in
          a = b
          && go
               (Dp_eval.thread_feedback fresh_fb a)
               (Dp_eval.thread_feedback prepared_fb b)
               rest
      in
      go [] [] stream)

let test_prepared_keeps_undefined_read_error () =
  (* a use placed before its definition fails on every launch: the
     register file reused between launches must not make it defined *)
  let dp = datapath_of if_else_source "if_else" in
  let regs =
    List.concat_map
      (fun (n : Graph.node) ->
        List.concat_map
          (fun (i : Instr.instr) -> Option.to_list i.Instr.dst @ i.Instr.srcs)
          n.Graph.instrs)
      dp.Graph.nodes
  in
  let late = 1 + List.fold_left max 0 regs in
  let kind = Ast.make_ikind ~signed:true 32 in
  let first = List.hd dp.Graph.nodes in
  let last = List.nth dp.Graph.nodes (List.length dp.Graph.nodes - 1) in
  first.Graph.instrs <-
    Instr.make ~dst:(late + 1) Instr.Mov [ late ] kind :: first.Graph.instrs;
  last.Graph.instrs <-
    last.Graph.instrs @ [ Instr.make ~dst:late (Instr.Ldc 1L) [] kind ];
  let p = Dp_eval.prepare dp in
  for launch = 1 to 2 do
    match Dp_eval.run_prepared p ~inputs:[ "x1", 3L; "x2", 4L ] with
    | _ -> Alcotest.failf "launch %d read an undefined register" launch
    | exception
        Roccc_util.Diag.Error { where = "datapath evaluation"; msg; _ } ->
      Alcotest.(check string)
        (Printf.sprintf "launch %d error" launch)
        (Printf.sprintf "dp_eval: register v%d read before definition" late)
        msg
  done

(* ------------------------------------------------------------------ *)

let suites =
  [ "datapath.structure",
    [ Alcotest.test_case "if_else soft/mux/pipe nodes (Figure 6)" `Quick
        test_if_else_structure;
      Alcotest.test_case "mux after branches, pipe alongside" `Quick
        test_if_else_mux_parallel_to_nothing;
      Alcotest.test_case "def-use adjoining invariant" `Quick
        test_adjoining_invariant;
      Alcotest.test_case "straight-line has no hard nodes" `Quick
        test_straightline_no_hard_nodes;
      Alcotest.test_case "nested if" `Quick test_nested_if_structure ];
    "datapath.behaviour",
    [ Alcotest.test_case "if_else evaluation" `Quick test_dp_eval_if_else;
      Alcotest.test_case "speculative division guarded" `Quick
        test_dp_eval_speculative_division;
      Alcotest.test_case "accumulator stream (Figure 7)" `Quick
        test_dp_eval_accumulator_stream;
      Alcotest.test_case "conditional accumulation (mul_acc nd)" `Quick
        test_dp_conditional_accumulator;
      Alcotest.test_case "matches VM evaluation" `Quick test_dp_matches_vm;
      Alcotest.test_case "prepared: undefined read fails every launch" `Quick
        test_prepared_keeps_undefined_read_error ];
    "datapath.widths",
    [ Alcotest.test_case "comparison is 1 bit" `Quick
        test_widths_comparison_is_one_bit;
      Alcotest.test_case "multiply narrows to operand sum" `Quick
        test_widths_narrowing;
      Alcotest.test_case "add grows one bit" `Quick
        test_widths_add_grows_one_bit;
      Alcotest.test_case "all signals covered" `Quick
        test_widths_all_signals_covered ];
    "datapath.pipeline",
    [ Alcotest.test_case "FIR pipelines" `Quick test_pipeline_fir;
      Alcotest.test_case "feedback fits one stage (SNX latch)" `Quick
        test_pipeline_feedback_single_stage;
      Alcotest.test_case "target delay controls depth" `Quick
        test_pipeline_deeper_with_smaller_target;
      Alcotest.test_case "stage order respects dependencies" `Quick
        test_pipeline_monotone_stages;
      Alcotest.test_case "retiming never spends more latch bits" `Quick
        test_retiming_never_worse;
      Alcotest.test_case "retiming reaches a fixpoint" `Quick
        test_retiming_fixpoint;
      Alcotest.test_case "retiming has no recovery gap" `Quick
        test_retiming_no_recovery_gap;
      qcheck_case prop_exact_matches_brute_force;
      Alcotest.test_case "verify rejects a backward dataflow edge" `Quick
        test_verify_backward_edge;
      Alcotest.test_case "verify rejects a split feedback latch" `Quick
        test_verify_split_feedback;
      Alcotest.test_case "verify rejects unbalanced latch totals" `Quick
        test_verify_latch_balance ];
    "datapath.delay",
    [ Alcotest.test_case "delay grows with operand width" `Quick
        test_delay_width_monotone;
      Alcotest.test_case "constant multiplier folds to shift-adds" `Quick
        test_delay_const_mul_shift_add;
      Alcotest.test_case "constant shifts and masks are wiring" `Quick
        test_delay_const_shift_free ];
    "datapath.timing",
    [ Alcotest.test_case "ASAP/ALAP bracket every instruction" `Quick
        test_timing_mobility ];
    "datapath.properties",
    [ qcheck_case prop_dp_matches_interp;
      qcheck_case prop_accumulator_stream_matches;
      qcheck_case prop_prepared_matches_fresh_runs ] ]
