(* Extra coverage: synthetic cyclic CFGs for the dominator and SSA
   libraries (the dp functions are acyclic, but the libraries are general),
   the driver's function-to-LUT conversion, determinism, and engine edge
   cases. *)

open Roccc_vm
open Roccc_analysis
module Driver = Roccc_core.Driver
module Ast = Roccc_cfront.Ast

(* Build a synthetic procedure with a loop:
     L0: v0 = ldc 0            (counter)
         v1 = ldc 10
         jump L1
     L1: v2 = add v0, v5?      -- we keep it non-SSA: v0 redefined
         v3 = slt v0, v1
         branch v3 ? L2 : L3
     L2: v0 = add v0, v4(=1)
         jump L1
     L3: ret                   (output v0)
*)
let build_loop_proc () =
  let proc = Proc.create "looper" in
  let k = Ast.int32_kind in
  let b0 = Proc.fresh_block proc in
  let b1 = Proc.fresh_block proc in
  let b2 = Proc.fresh_block proc in
  let b3 = Proc.fresh_block proc in
  let v0 = Proc.fresh_reg proc k in
  let v1 = Proc.fresh_reg proc k in
  let v3 = Proc.fresh_reg proc k in
  let v4 = Proc.fresh_reg proc k in
  b0.Proc.instrs <-
    [ Instr.make ~dst:v0 (Instr.Ldc 0L) [] k;
      Instr.make ~dst:v1 (Instr.Ldc 10L) [] k;
      Instr.make ~dst:v4 (Instr.Ldc 1L) [] k ];
  b0.Proc.term <- Proc.Jump b1.Proc.label;
  b1.Proc.instrs <- [ Instr.make ~dst:v3 Instr.Slt [ v0; v1 ] Ast.bool_kind ];
  b1.Proc.term <- Proc.Branch (v3, b2.Proc.label, b3.Proc.label);
  b2.Proc.instrs <- [ Instr.make ~dst:v0 Instr.Add [ v0; v4 ] k ];
  b2.Proc.term <- Proc.Jump b1.Proc.label;
  b3.Proc.term <- Proc.Ret;
  let proc =
    { proc with
      Proc.inputs = [];
      Proc.outputs = [ { Proc.port_name = "n"; port_reg = v0; port_kind = k } ]
    }
  in
  proc, (b0, b1, b2, b3)

let test_cfg_loop_dominators () =
  let proc, (b0, b1, b2, b3) = build_loop_proc () in
  let g = Cfg.build proc in
  Alcotest.(check bool) "b0 dominates all" true
    (List.for_all
       (fun (b : Proc.block) -> Cfg.dominates g b0.Proc.label b.Proc.label)
       proc.Proc.blocks);
  Alcotest.(check (option int)) "idom of loop head" (Some b0.Proc.label)
    (Cfg.immediate_dominator g b1.Proc.label);
  Alcotest.(check (option int)) "idom of body" (Some b1.Proc.label)
    (Cfg.immediate_dominator g b2.Proc.label);
  Alcotest.(check (option int)) "idom of exit" (Some b1.Proc.label)
    (Cfg.immediate_dominator g b3.Proc.label);
  Alcotest.(check bool) "body does not dominate exit" false
    (Cfg.dominates g b2.Proc.label b3.Proc.label)

let test_cfg_loop_dominance_frontier () =
  let proc, (_b0, b1, b2, _b3) = build_loop_proc () in
  let g = Cfg.build proc in
  let df = Cfg.dominance_frontiers g in
  (* the loop body's frontier contains the loop head (back edge) *)
  let df_b2 = Option.value (Hashtbl.find_opt df b2.Proc.label) ~default:[] in
  Alcotest.(check bool) "DF(body) contains head" true
    (List.mem b1.Proc.label df_b2);
  (* the head's frontier contains itself (it is in its own DF for loops) *)
  let df_b1 = Option.value (Hashtbl.find_opt df b1.Proc.label) ~default:[] in
  Alcotest.(check bool) "DF(head) contains head" true
    (List.mem b1.Proc.label df_b1)

(* A ladder of [diamonds] diamonds (header -> left/right -> join), each
   redefining the accumulator on both arms; with [loops], every tenth join
   conditionally branches back to its own header. 1 + 4*diamonds + 1
   blocks. *)
let build_ladder ~diamonds ~loops () =
  let proc = Proc.create "ladder" in
  let k = Ast.int32_kind in
  let entry = Proc.fresh_block proc in
  let step = Proc.fresh_reg proc k in
  let acc = Proc.fresh_reg proc k in
  entry.Proc.instrs <-
    [ Instr.make ~dst:step (Instr.Ldc 1L) [] k;
      Instr.make ~dst:acc (Instr.Ldc 0L) [] k ];
  let link = ref (fun l -> entry.Proc.term <- Proc.Jump l) in
  for i = 1 to diamonds do
    let hd = Proc.fresh_block proc in
    let lf = Proc.fresh_block proc in
    let rt = Proc.fresh_block proc in
    let jn = Proc.fresh_block proc in
    !link hd.Proc.label;
    let cond = Proc.fresh_reg proc Ast.bool_kind in
    hd.Proc.instrs <-
      [ Instr.make ~dst:cond Instr.Slt [ acc; step ] Ast.bool_kind ];
    hd.Proc.term <- Proc.Branch (cond, lf.Proc.label, rt.Proc.label);
    lf.Proc.instrs <- [ Instr.make ~dst:acc Instr.Add [ acc; step ] k ];
    lf.Proc.term <- Proc.Jump jn.Proc.label;
    rt.Proc.instrs <- [ Instr.make ~dst:acc Instr.Sub [ acc; step ] k ];
    rt.Proc.term <- Proc.Jump jn.Proc.label;
    if loops && i mod 10 = 0 then begin
      let again = Proc.fresh_reg proc Ast.bool_kind in
      jn.Proc.instrs <-
        [ Instr.make ~dst:again Instr.Sgt [ acc; step ] Ast.bool_kind ];
      link :=
        fun l -> jn.Proc.term <- Proc.Branch (again, hd.Proc.label, l)
    end
    else link := fun l -> jn.Proc.term <- Proc.Jump l
  done;
  let exit_b = Proc.fresh_block proc in
  !link exit_b.Proc.label;
  exit_b.Proc.term <- Proc.Ret;
  { proc with
    Proc.outputs = [ { Proc.port_name = "acc"; port_reg = acc; port_kind = k } ]
  }

(* dominance frontiers on the ladder: the stamped construction must match a
   direct reading of Cytron's definition *)
let test_ladder_dominance_frontiers () =
  let proc = build_ladder ~diamonds:60 ~loops:true () in
  let g = Cfg.build proc in
  let df = Cfg.dominance_frontiers g in
  List.iter
    (fun (b : Proc.block) ->
      let x = b.Proc.label in
      let expected =
        (* y is in DF(x) iff x dominates a predecessor of y but not y
           strictly (x = y allowed) *)
        List.filter_map
          (fun (y : Proc.block) ->
            let y = y.Proc.label in
            let dominates_pred =
              List.exists
                (fun p -> Cfg.dominates g x p)
                (Cfg.predecessors g y)
            in
            if dominates_pred && (x = y || not (Cfg.dominates g x y)) then
              Some y
            else None)
          proc.Proc.blocks
      in
      let got =
        List.sort compare (Option.value (Hashtbl.find_opt df x) ~default:[])
      in
      Alcotest.(check (list int))
        (Printf.sprintf "DF(%d)" x)
        (List.sort compare expected)
        got)
    proc.Proc.blocks

(* Both arms under [r] reach the join [l], whose third predecessor puts
   its idom above [r]: each walk passes [r], which still lists [l] once.
     entry -> r | q;  r -> p1 | p2;  p1, p2, q -> l *)
let test_frontier_listed_once () =
  let proc = Proc.create "shared" in
  let k = Ast.int32_kind in
  let blk () = Proc.fresh_block proc in
  let entry = blk () and r = blk () and q = blk () in
  let p1 = blk () and p2 = blk () and l = blk () in
  let c = Proc.fresh_reg proc k in
  entry.Proc.instrs <- [ Instr.make ~dst:c (Instr.Ldc 1L) [] k ];
  entry.Proc.term <- Proc.Branch (c, r.Proc.label, q.Proc.label);
  r.Proc.term <- Proc.Branch (c, p1.Proc.label, p2.Proc.label);
  List.iter (fun (b : Proc.block) -> b.Proc.term <- Proc.Jump l.Proc.label)
    [ q; p1; p2 ];
  l.Proc.term <- Proc.Ret;
  let df = Cfg.dominance_frontiers (Cfg.build proc) in
  List.iter
    (fun (b : Proc.block) ->
      Alcotest.(check (list int))
        (Printf.sprintf "DF(%d)" b.Proc.label)
        [ l.Proc.label ]
        (Option.value (Hashtbl.find_opt df b.Proc.label) ~default:[]))
    [ r; q; p1; p2 ]

(* SSA on the loopy ladder: one name per register, every use dominated by
   its definition, and the accumulator's final value unchanged *)
let test_ssa_on_ladder () =
  let proc = build_ladder ~diamonds:60 ~loops:true () in
  let before = Eval.run proc ~inputs:[] in
  let _g = Ssa.convert proc in
  Ssa.verify proc;
  let after = Eval.run proc ~inputs:[] in
  Alcotest.(check (list (pair string int64))) "same outputs"
    before.Eval.outputs after.Eval.outputs

let test_ssa_on_loop () =
  (* SSA conversion handles the cycle: phi at the loop head. *)
  let proc, (_b0, b1, _b2, _b3) = build_loop_proc () in
  let _g = Ssa.convert proc in
  Ssa.verify proc;
  let head = Proc.find_block proc b1.Proc.label in
  Alcotest.(check bool) "phi at loop head" true (head.Proc.phis <> []);
  List.iter
    (fun (p : Proc.phi) ->
      Alcotest.(check int) "two incoming edges" 2 (List.length p.Proc.phi_args))
    head.Proc.phis

let test_eval_loop_proc () =
  (* The evaluator executes the CFG cycle to completion. *)
  let proc, _ = build_loop_proc () in
  let _ = Ssa.convert proc in
  let r = Eval.run proc ~inputs:[] in
  Alcotest.(check int64) "counts to 10" 10L (List.assoc "n" r.Eval.outputs)

(* ------------------------------------------------------------------ *)
(* Function-to-LUT conversion via the driver                           *)
(* ------------------------------------------------------------------ *)

let lut_src =
  "int gamma_correct(uint8 x) { return (x * x) >> 6; }\n\
   void filter(uint8 A[16], uint16 C[16]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 16; i++) {\n\
  \    C[i] = gamma_correct(A[i]) + 1;\n\
  \  }\n\
   }\n"

let test_driver_lut_conversion () =
  let c =
    Driver.compile
      ~options:{ Driver.default_options with Driver.lut_convert_max_bits = 8 }
      ~entry:"filter" lut_src
  in
  Alcotest.(check bool) "lut-conversion pass ran" true
    (List.mem "lut-conversion" c.Driver.pass_trace);
  Alcotest.(check int) "one table registered" 1 (List.length c.Driver.luts);
  (* the design instantiates the ROM *)
  let has_rom =
    List.exists
      (fun (u : Roccc_vhdl.Ast.design_unit) ->
        u.Roccc_vhdl.Ast.unit_entity.Roccc_vhdl.Ast.entity_name
        = "rom_gamma_correct")
      c.Driver.design.Roccc_vhdl.Ast.units
  in
  Alcotest.(check bool) "ROM entity generated" true has_rom;
  let arrays = [ "A", Array.init 16 (fun i -> Int64.of_int (i * 16)) ] in
  Alcotest.(check (list string)) "verifies" [] (Driver.verify ~arrays c)

let test_driver_lut_vs_inline_same_result () =
  let arrays = [ "A", Array.init 16 (fun i -> Int64.of_int (255 - (i * 10))) ] in
  let as_lut =
    Driver.compile
      ~options:{ Driver.default_options with Driver.lut_convert_max_bits = 8 }
      ~entry:"filter" lut_src
  in
  let inlined = Driver.compile ~entry:"filter" lut_src in
  Alcotest.(check bool) "inlined has no table" true (inlined.Driver.luts = []);
  let r1 = Driver.simulate ~arrays as_lut in
  let r2 = Driver.simulate ~arrays inlined in
  Alcotest.(check bool) "same outputs" true
    (r1.Roccc_hw.Engine.output_arrays = r2.Roccc_hw.Engine.output_arrays)

(* ------------------------------------------------------------------ *)
(* Determinism and engine edge cases                                   *)
(* ------------------------------------------------------------------ *)

let test_compile_deterministic () =
  let src = Roccc_core.Kernels.fir.Roccc_core.Kernels.source in
  let v1 =
    Roccc_vhdl.Ast.to_string
      (Driver.compile ~entry:"fir" src).Driver.design
  in
  let v2 =
    Roccc_vhdl.Ast.to_string
      (Driver.compile ~entry:"fir" src).Driver.design
  in
  Alcotest.(check bool) "identical VHDL across compilations" true (v1 = v2)

let test_engine_zero_iterations () =
  let src =
    "void nothing(int A[4], int C[4]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 0; i++) { C[i] = A[i]; }\n\
     }\n"
  in
  (* zero-trip loops fold the body away; scalar replacement sees no loop
     and no array accesses -> degenerate kernel; either a clean compile
     error or an immediate-done simulation is acceptable, never a hang *)
  match Driver.compile ~entry:"nothing" src with
  | exception Driver.Error _ -> ()
  | c -> (
    match
      Driver.simulate ~arrays:[ "A", Array.make 4 0L ] c
    with
    | r -> Alcotest.(check int) "no launches" 0 r.Roccc_hw.Engine.launches
    | exception Roccc_hw.Engine.Error _ -> ())

let test_engine_single_iteration () =
  let src =
    "void once(int A[3], int C[1]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 1; i++) { C[i] = A[i] + A[i+1] + A[i+2]; }\n\
     }\n"
  in
  let c = Driver.compile ~entry:"once" src in
  let r = Driver.simulate ~arrays:[ "A", [| 1L; 2L; 3L |] ] c in
  Alcotest.(check int) "one launch" 1 r.Roccc_hw.Engine.launches;
  Alcotest.(check int64) "sum" 6L
    (List.assoc "C" r.Roccc_hw.Engine.output_arrays).(0)

let test_engine_wide_bus_beyond_array () =
  let src = Roccc_core.Kernels.fir.Roccc_core.Kernels.source in
  let c =
    Driver.compile
      ~options:{ Driver.default_options with Driver.bus_elements = 16 }
      ~entry:"fir" src
  in
  let arrays = [ "A", Array.init 64 (fun i -> Int64.of_int i) ] in
  Alcotest.(check (list string)) "verifies with a 16-element bus" []
    (Driver.verify ~arrays c)

let test_strip_mined_kernel_verifies () =
  (* manual strip-mining then compilation of the inner strip as a kernel *)
  let src =
    "void strip(int A[20], int C[16]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i++) {\n\
    \    C[i] = A[i] + A[i+4];\n\
    \  }\n\
     }\n"
  in
  let c = Driver.compile ~entry:"strip" src in
  let arrays = [ "A", Array.init 20 (fun i -> Int64.of_int (i * i)) ] in
  Alcotest.(check (list string)) "verifies" [] (Driver.verify ~arrays c)

let test_compile_all () =
  let source =
    "void fir(int8 A[16], int16 C[12]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 12; i++) { C[i] = A[i] + 2*A[i+2] - A[i+4]; }\n\
     }\n\
     int helper(int x) { return x + 1; }\n\
     void bad(int A[8], int B[8], int C[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i++) { C[i] = A[B[i]]; }\n\
     }\n"
  in
  let oks, errs = Driver.compile_all source in
  Alcotest.(check (list string)) "compiled kernels" [ "fir" ]
    (List.map fst oks);
  Alcotest.(check (list string)) "failed kernels" [ "bad" ]
    (List.map fst errs);
  (* scalar-only helper is not a hardware kernel *)
  Alcotest.(check bool) "helper skipped" true
    (not (List.mem_assoc "helper" oks) && not (List.mem_assoc "helper" errs))

let suites =
  [ "analysis.loops",
    [ Alcotest.test_case "dominators on a cyclic CFG" `Quick
        test_cfg_loop_dominators;
      Alcotest.test_case "dominance frontier with back edge" `Quick
        test_cfg_loop_dominance_frontier;
      Alcotest.test_case "ladder dominance frontiers match definition"
        `Quick test_ladder_dominance_frontiers;
      Alcotest.test_case "frontier lists a join once" `Quick
        test_frontier_listed_once;
      Alcotest.test_case "SSA with loop phis" `Quick test_ssa_on_loop;
      Alcotest.test_case "SSA on the 240-block ladder" `Quick
        test_ssa_on_ladder;
      Alcotest.test_case "evaluator runs the cycle" `Quick
        test_eval_loop_proc ];
    "core.lut_conversion",
    [ Alcotest.test_case "function becomes a ROM" `Quick
        test_driver_lut_conversion;
      Alcotest.test_case "LUT = inline results" `Quick
        test_driver_lut_vs_inline_same_result ];
    "core.robustness",
    [ Alcotest.test_case "deterministic compilation" `Quick
        test_compile_deterministic;
      Alcotest.test_case "zero-iteration loop" `Quick
        test_engine_zero_iterations;
      Alcotest.test_case "single-iteration loop" `Quick
        test_engine_single_iteration;
      Alcotest.test_case "bus wider than needed" `Quick
        test_engine_wide_bus_beyond_array;
      Alcotest.test_case "offset-window kernel" `Quick
        test_strip_mined_kernel_verifies;
      Alcotest.test_case "compile-all partitions a file" `Quick
        test_compile_all ] ]
