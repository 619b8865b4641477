(* Tests for the VM IR, lowering, CFG, dataflow and SSA libraries. *)

open Roccc_cfront
open Roccc_hir
open Roccc_vm
open Roccc_analysis

let kernel_of src name =
  let prog = Parser.parse_program src in
  let _ = Semant.check_program prog in
  let f = List.find (fun g -> g.Ast.fname = name) prog.Ast.funcs in
  Feedback.annotate (Scalar_replacement.run prog f)

let fir_source = Roccc_core.Kernels.paper_fir_source

let acc_source = Roccc_core.Kernels.paper_acc_source

let if_else_source = Roccc_core.Kernels.paper_if_else_source

let lower src name = Lower.lower_kernel (kernel_of src name)

(* ------------------------------------------------------------------ *)
(* Lowering + evaluation                                               *)
(* ------------------------------------------------------------------ *)

let test_lower_fir_eval () =
  let proc = lower fir_source "fir" in
  let r =
    Eval.run proc
      ~inputs:[ "A0", 1L; "A1", 2L; "A2", 3L; "A3", 4L; "A4", 5L ]
  in
  Alcotest.(check int64) "tap value" 65L (List.assoc "Tmp0" r.Eval.outputs)

let test_lower_if_else_eval () =
  let proc = lower if_else_source "if_else" in
  let reference x1 x2 =
    let c = x1 - x2 in
    let a = if c < x2 then x1 * x1 else (x1 * x2) + 3 in
    Int64.of_int (c - a), Int64.of_int a
  in
  List.iter
    (fun (x1, x2) ->
      let r =
        Eval.run proc
          ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      let want3, want4 = reference x1 x2 in
      Alcotest.(check int64)
        (Printf.sprintf "x3 at (%d,%d)" x1 x2)
        want3
        (List.assoc "x3" r.Eval.outputs);
      Alcotest.(check int64)
        (Printf.sprintf "x4 at (%d,%d)" x1 x2)
        want4
        (List.assoc "x4" r.Eval.outputs))
    [ 0, 0; 5, 3; 3, 5; -4, 10; 100, -100 ]

let test_lower_accumulator_stream () =
  (* Streaming the accumulator dp over 32 inputs reproduces the sum. *)
  let proc = lower acc_source "acc" in
  let stream = List.init 32 (fun i -> [ "A0", Int64.of_int i ]) in
  let results = Eval.run_stream proc stream in
  let last = List.nth results 31 in
  Alcotest.(check int64) "final sum" 496L (List.assoc "Tmp0" last.Eval.outputs);
  (* feedback value advances every iteration *)
  let fb_after_3 = List.nth results 2 in
  Alcotest.(check int64) "sum after 3 items (0+1+2)" 3L
    (List.assoc "sum" fb_after_3.Eval.feedback_next)

let test_lower_lut () =
  let luts_sig =
    [ "cos",
      { Semant.lut_in = Ast.make_ikind ~signed:false 10;
        lut_out = Ast.make_ikind ~signed:true 16 } ]
  in
  let src = "void f(uint10 x, int16* y) { *y = cos(x); }" in
  let prog = Parser.parse_program src in
  let _ = Semant.check_program ~luts:luts_sig prog in
  let f = List.hd prog.Ast.funcs in
  let k = Scalar_replacement.run prog f in
  let proc = Lower.lower_kernel ~luts:luts_sig k in
  let table = Lut_conv.cos_table ~in_bits:10 ~out_bits:16 () in
  let r =
    Eval.run proc
      ~luts:[ "cos", Lut_conv.lookup table ]
      ~inputs:[ "x", 0L ]
  in
  Alcotest.(check int64) "cos(0)" 32767L (List.assoc "y" r.Eval.outputs)

let test_instr_arity_checked () =
  match Instr.make ~dst:0 Instr.Add [ 1 ] Ast.int32_kind with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity check failure"

let test_eval_rejects_missing_input () =
  let proc = lower fir_source "fir" in
  match Eval.run proc ~inputs:[ "A0", 1L ] with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected missing-input error"

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cfg_if_else_shape () =
  let proc = lower if_else_source "if_else" in
  let g = Cfg.build proc in
  (* entry, then, else, join = 4 blocks *)
  Alcotest.(check int) "4 blocks" 4 (Array.length g.Cfg.rpo);
  let entry = Cfg.entry_label g in
  Alcotest.(check int) "entry has 2 successors" 2
    (List.length (Cfg.successors g entry));
  (* join block: 2 predecessors, dominated by entry *)
  let join =
    Array.to_list g.Cfg.rpo
    |> List.find (fun l -> List.length (Cfg.predecessors g l) = 2)
  in
  Alcotest.(check bool) "entry dominates join" true (Cfg.dominates g entry join);
  Alcotest.(check (option int)) "join's idom is entry" (Some entry)
    (Cfg.immediate_dominator g join)

let test_cfg_dominance_frontier () =
  let proc = lower if_else_source "if_else" in
  let g = Cfg.build proc in
  let df = Cfg.dominance_frontiers g in
  let entry = Cfg.entry_label g in
  let join =
    Array.to_list g.Cfg.rpo
    |> List.find (fun l -> List.length (Cfg.predecessors g l) = 2)
  in
  let branches =
    Array.to_list g.Cfg.rpo
    |> List.filter (fun l -> l <> entry && l <> join)
  in
  List.iter
    (fun b ->
      Alcotest.(check (list int))
        (Printf.sprintf "DF of branch L%d is the join" b)
        [ join ]
        (Option.value (Hashtbl.find_opt df b) ~default:[]))
    branches;
  Alcotest.(check (list int)) "DF of entry empty" []
    (Option.value (Hashtbl.find_opt df entry) ~default:[])

let test_cfg_straightline () =
  let proc = lower fir_source "fir" in
  let g = Cfg.build proc in
  Alcotest.(check int) "single block" 1 (Array.length g.Cfg.rpo);
  Alcotest.(check (list int)) "no successors" []
    (Cfg.successors g (Cfg.entry_label g))

(* ------------------------------------------------------------------ *)
(* SSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ssa_single_assignment () =
  let proc = lower if_else_source "if_else" in
  let _g = Ssa.convert proc in
  Ssa.verify proc

let test_ssa_phi_at_join () =
  let proc = lower if_else_source "if_else" in
  let _g = Ssa.convert proc in
  let join =
    List.find
      (fun (b : Proc.block) -> b.Proc.phis <> [])
      proc.Proc.blocks
  in
  (* 'a' is assigned in both branches: exactly the merge the paper's mux
     node 7 materializes. At least one phi with two args. *)
  List.iter
    (fun (phi : Proc.phi) ->
      Alcotest.(check int)
        (Printf.sprintf "phi v%d has 2 args" phi.Proc.phi_dst)
        2
        (List.length phi.Proc.phi_args))
    join.Proc.phis;
  Alcotest.(check bool) "has phis" true (List.length join.Proc.phis >= 1)

let test_ssa_preserves_semantics () =
  let proc = lower if_else_source "if_else" in
  let before =
    List.map
      (fun (x1, x2) ->
        Eval.run proc ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ])
      [ 0, 0; 5, 3; 3, 5; -4, 10; 100, -100; 7, 7 ]
  in
  let _g = Ssa.convert proc in
  Ssa.verify proc;
  let after =
    List.map
      (fun (x1, x2) ->
        Eval.run proc ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ])
      [ 0, 0; 5, 3; 3, 5; -4, 10; 100, -100; 7, 7 ]
  in
  List.iter2
    (fun (b : Eval.result) (a : Eval.result) ->
      Alcotest.(check bool) "same outputs" true (b.Eval.outputs = a.Eval.outputs))
    before after

let test_ssa_straightline_noop_phis () =
  let proc = lower fir_source "fir" in
  let _g = Ssa.convert proc in
  Ssa.verify proc;
  List.iter
    (fun (b : Proc.block) ->
      Alcotest.(check int) "no phis in straight-line code" 0
        (List.length b.Proc.phis))
    proc.Proc.blocks

let test_ssa_accumulator_stream_preserved () =
  let proc = lower acc_source "acc" in
  let _g = Ssa.convert proc in
  Ssa.verify proc;
  let stream = List.init 32 (fun i -> [ "A0", Int64.of_int i ]) in
  let results = Eval.run_stream proc stream in
  let last = List.nth results 31 in
  Alcotest.(check int64) "final sum preserved" 496L
    (List.assoc "Tmp0" last.Eval.outputs)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_lower_matches_interp =
  (* Random if_else-style kernels: VM evaluation = C interpretation. *)
  QCheck.Test.make ~count:100
    ~name:"lowered VM procedure matches the C interpreter"
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (x1, x2) ->
      let proc = lower if_else_source "if_else" in
      let r =
        Eval.run proc ~inputs:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      let o =
        Interp.run_source if_else_source "if_else"
          ~scalars:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
      in
      List.assoc "x3" r.Eval.outputs
      = List.assoc "x3" o.Interp.pointer_outputs
      && List.assoc "x4" r.Eval.outputs
         = List.assoc "x4" o.Interp.pointer_outputs)

let prop_ssa_preserves_eval =
  QCheck.Test.make ~count:60 ~name:"SSA conversion preserves evaluation"
    QCheck.(pair (int_range (-500) 500) (int_range (-500) 500))
    (fun (x1, x2) ->
      let proc = lower if_else_source "if_else" in
      let inputs = [ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ] in
      let before = Eval.run proc ~inputs in
      let _ = Ssa.convert proc in
      let after = Eval.run proc ~inputs in
      before.Eval.outputs = after.Eval.outputs)

(* ------------------------------------------------------------------ *)

let suites =
  [ "vm.lower",
    [ Alcotest.test_case "FIR tap" `Quick test_lower_fir_eval;
      Alcotest.test_case "if_else branches" `Quick test_lower_if_else_eval;
      Alcotest.test_case "accumulator stream (LPR/SNX)" `Quick
        test_lower_accumulator_stream;
      Alcotest.test_case "lookup table" `Quick test_lower_lut;
      Alcotest.test_case "instruction arity checked" `Quick
        test_instr_arity_checked;
      Alcotest.test_case "missing input rejected" `Quick
        test_eval_rejects_missing_input ];
    "analysis.cfg",
    [ Alcotest.test_case "if/else diamond" `Quick test_cfg_if_else_shape;
      Alcotest.test_case "dominance frontiers" `Quick
        test_cfg_dominance_frontier;
      Alcotest.test_case "straight-line" `Quick test_cfg_straightline ];
    "analysis.ssa",
    [ Alcotest.test_case "single-assignment invariant" `Quick
        test_ssa_single_assignment;
      Alcotest.test_case "phi at the join (mux source)" `Quick
        test_ssa_phi_at_join;
      Alcotest.test_case "semantics preserved" `Quick
        test_ssa_preserves_semantics;
      Alcotest.test_case "no phis in straight-line code" `Quick
        test_ssa_straightline_noop_phis;
      Alcotest.test_case "accumulator stream preserved" `Quick
        test_ssa_accumulator_stream_preserved ];
    "vm.properties",
    [ qcheck_case prop_lower_matches_interp;
      qcheck_case prop_ssa_preserves_eval ] ]
