(* Tests for the back-end optimization passes (copy propagation, local value
   numbering, DCE), driver-level partial unrolling, and a differential
   fuzzer that pushes random kernels through the entire compiler and
   compares the cycle-accurate simulation against the C interpreter. *)

open Roccc_cfront
open Roccc_hir
open Roccc_vm
open Roccc_analysis
module Driver = Roccc_core.Driver
module Engine = Roccc_hw.Engine

let proc_of src name =
  let prog = Parser.parse_program src in
  let _ = Semant.check_program prog in
  let f = List.find (fun g -> g.Ast.fname = name) prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc = Lower.lower_kernel k in
  let _ = Ssa.convert proc in
  proc

let count_instrs (proc : Proc.t) =
  List.fold_left
    (fun acc (b : Proc.block) -> acc + List.length b.Proc.instrs)
    0 proc.Proc.blocks

(* ------------------------------------------------------------------ *)
(* Optimization passes                                                 *)
(* ------------------------------------------------------------------ *)

let test_value_numbering_shares () =
  (* (a + b) used twice computes one add *)
  let proc =
    proc_of "void f(int a, int b, int* o) { *o = (a + b) * (a + b); }" "f"
  in
  let before =
    List.length
      (List.filter
         (fun (i : Instr.instr) -> i.Instr.op = Instr.Add)
         (Proc.all_instrs proc))
  in
  Alcotest.(check int) "two adds before" 2 before;
  let _ = Optimize.run proc in
  Ssa.verify proc;
  let after =
    List.length
      (List.filter
         (fun (i : Instr.instr) -> i.Instr.op = Instr.Add)
         (Proc.all_instrs proc))
  in
  Alcotest.(check int) "one add after" 1 after;
  (* behaviour preserved *)
  let r = Eval.run proc ~inputs:[ "a", 3L; "b", 4L ] in
  Alcotest.(check int64) "49" 49L (List.assoc "o" r.Eval.outputs)

let test_dce_removes_dead_output_init () =
  (* the Ldc 0 initializing an always-written output is dead after SSA *)
  let proc = proc_of "void f(int a, int* o) { *o = a + 1; }" "f" in
  let _ = Optimize.run proc in
  let has_dead_ldc =
    List.exists
      (fun (i : Instr.instr) ->
        match i.Instr.op, i.Instr.dst with
        | Instr.Ldc 0L, Some d ->
          (* is d still read anywhere or exported? *)
          (not
             (List.exists
                (fun (p : Proc.port) -> p.Proc.port_reg = d)
                proc.Proc.outputs))
          && not
               (List.exists
                  (fun (j : Instr.instr) -> List.mem d j.Instr.srcs)
                  (Proc.all_instrs proc))
        | _ -> false)
      (Proc.all_instrs proc)
  in
  Alcotest.(check bool) "no dead ldc left" false has_dead_ldc

let test_optimize_shrinks_and_preserves () =
  List.iter
    (fun (src, name, inputs, expected_out, expected_val) ->
      let proc = proc_of src name in
      let before = count_instrs proc in
      let r0 = Eval.run proc ~inputs in
      let _ = Optimize.run proc in
      Ssa.verify proc;
      let after = count_instrs proc in
      let r1 = Eval.run proc ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d -> %d instrs" name before after)
        true (after <= before);
      Alcotest.(check bool) "same outputs" true
        (r0.Eval.outputs = r1.Eval.outputs);
      Alcotest.(check int64) "expected value" expected_val
        (List.assoc expected_out r1.Eval.outputs))
    [ ( "void f(int a, int b, int* o) { *o = a*b + a*b + a*b; }", "f",
        [ "a", 3L; "b", 5L ], "o", 45L );
      ( "void g(int x, int* o) { int t, u; t = x + 1; u = x + 1; *o = t + u; \
         }", "g", [ "x", 10L ], "o", 22L ) ]

let test_optimize_preserves_feedback () =
  let src =
    "int sum = 0;\n\
     void acc(int A[8], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i++) { sum = sum + A[i]; }\n\
    \  *out = sum;\n\
     }"
  in
  let proc = proc_of src "acc" in
  let _ = Optimize.run proc in
  Ssa.verify proc;
  (* the SNX must survive *)
  let has_snx =
    List.exists
      (fun (i : Instr.instr) ->
        match i.Instr.op with Instr.Snx _ -> true | _ -> false)
      (Proc.all_instrs proc)
  in
  Alcotest.(check bool) "snx kept" true has_snx;
  let stream = List.init 8 (fun i -> [ "A0", Int64.of_int (i + 1) ]) in
  let rs = Eval.run_stream proc stream in
  Alcotest.(check int64) "sum 1..8" 36L
    (List.assoc "Tmp0" (List.nth rs 7).Eval.outputs)

let test_optimize_ablation_smaller_area () =
  (* dct benefits from value numbering (shared butterfly terms) *)
  let b = Roccc_core.Kernels.dct in
  let on = Roccc_core.Kernels.compile b in
  let off =
    Driver.compile
      ~options:
        { (b.Roccc_core.Kernels.tune Driver.default_options) with
          Driver.disabled_passes = [ "vm-optimize" ] }
      ~entry:b.Roccc_core.Kernels.entry b.Roccc_core.Kernels.source
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimized %d <= unoptimized %d"
       on.Driver.area.Roccc_fpga.Area.slices
       off.Driver.area.Roccc_fpga.Area.slices)
    true
    (on.Driver.area.Roccc_fpga.Area.slices
    <= off.Driver.area.Roccc_fpga.Area.slices)

(* ------------------------------------------------------------------ *)
(* Partial unrolling through the driver                                *)
(* ------------------------------------------------------------------ *)

let fir_src =
  "void fir(int8 A[36], int16 C[32]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 32; i++) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

let test_partial_unroll_doubles_outputs () =
  let base = Driver.compile ~entry:"fir" fir_src in
  let unrolled =
    Driver.compile
      ~options:{ Driver.default_options with Driver.unroll_outer_factor = 2 }
      ~entry:"fir" fir_src
  in
  Alcotest.(check int) "1 output" 1
    (List.length base.Driver.kernel.Roccc_hir.Kernel.outputs);
  Alcotest.(check int) "2 outputs" 2
    (List.length unrolled.Driver.kernel.Roccc_hir.Kernel.outputs);
  (* simulate both; unrolled launches half as many iterations *)
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int ((i * 3) - 50)) ] in
  let r1 = Driver.simulate ~arrays base in
  let r2 = Driver.simulate ~arrays unrolled in
  Alcotest.(check int) "half the launches" (r1.Engine.launches / 2)
    r2.Engine.launches;
  Alcotest.(check bool) "same output array" true
    (List.assoc "C" r1.Engine.output_arrays
    = List.assoc "C" r2.Engine.output_arrays);
  Alcotest.(check (list string)) "unrolled verifies" []
    (Driver.verify ~arrays unrolled)

let test_partial_unroll_factor_four () =
  let unrolled =
    Driver.compile
      ~options:{ Driver.default_options with Driver.unroll_outer_factor = 4 }
      ~entry:"fir" fir_src
  in
  Alcotest.(check int) "4 outputs" 4
    (List.length unrolled.Driver.kernel.Roccc_hir.Kernel.outputs);
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int i) ] in
  Alcotest.(check (list string)) "verifies" []
    (Driver.verify ~arrays unrolled)

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: random kernels, whole pipeline vs interpreter *)
(* ------------------------------------------------------------------ *)

(* Random loop bodies over a 3-wide window (A0..A2), one scalar parameter s,
   and temporaries; straight-line assignments and if/else over safe
   operators (no division by data). *)
let gen_kernel_source : string QCheck.Gen.t =
  let open QCheck.Gen in
  let var_pool = [ "A[i]"; "A[i+1]"; "A[i+2]"; "s" ] in
  let rec gen_expr depth vars =
    if depth <= 0 then
      oneof
        [ map (fun c -> string_of_int c) (int_range (-20) 20);
          oneofl (var_pool @ vars) ]
    else
      let sub = gen_expr (depth - 1) vars in
      oneof
        [ map (fun c -> string_of_int c) (int_range (-20) 20);
          oneofl (var_pool @ vars);
          map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s & %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s | %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s ^ %s)" a b) sub sub;
          map (fun a -> Printf.sprintf "(%s << 2)" a) sub;
          map (fun a -> Printf.sprintf "(%s >> 1)" a) sub;
          map2 (fun a b -> Printf.sprintf "(%s < %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s == %s)" a b) sub sub;
          map (fun a -> Printf.sprintf "(%s / 5)" a) sub;
          map (fun a -> Printf.sprintf "(%s %% 7)" a) sub;
          map (fun a -> Printf.sprintf "(~%s)" a) sub;
          map (fun a -> Printf.sprintf "(-%s)" a) sub ]
  in
  let gen_stmt idx vars =
    let t = Printf.sprintf "t%d" idx in
    let* kind = int_range 0 2 in
    let+ s =
      if kind < 2 then
        let+ e = gen_expr 2 vars in
        Printf.sprintf "    int %s;\n    %s = %s;\n" t t e
      else
        let* cond_a = gen_expr 1 vars in
        let* cond_b = gen_expr 1 vars in
        let* e1 = gen_expr 2 vars in
        let+ e2 = gen_expr 2 vars in
        Printf.sprintf
          "    int %s;\n    if (%s < %s) { %s = %s; } else { %s = %s; }\n" t
          cond_a cond_b t e1 t e2
    in
    s, t
  in
  let* n_stmts = int_range 1 4 in
  let rec build idx vars acc =
    if idx >= n_stmts then return (acc, vars)
    else
      let* stmt, t = gen_stmt idx vars in
      build (idx + 1) (vars @ [ t ]) (acc ^ stmt)
  in
  let* body, vars = build 0 [] "" in
  let+ final = gen_expr 2 vars in
  Printf.sprintf
    "void k(int A[18], int s, int C[16]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i++) {\n%s    C[i] = %s;\n\
    \  }\n\
     }\n"
    body final

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_random_kernels_verify =
  QCheck.Test.make ~count:60
    ~name:"random kernels: full compile + cycle-accurate sim = interpreter"
    (QCheck.make gen_kernel_source ~print:(fun s -> s))
    (fun source ->
      let arrays =
        [ "A", Array.init 18 (fun i -> Int64.of_int ((i * 37 mod 211) - 100)) ]
      in
      let scalars = [ "s", 13L ] in
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c -> Driver.verify ~scalars ~arrays c = [])

let prop_width_inference_sound =
  (* Evaluating the data path with every signal truncated to its inferred
     width must not change any output: the inferred widths are sufficient. *)
  QCheck.Test.make ~count:60
    ~name:"bit-width inference is sound (truncated eval = full eval)"
    (QCheck.make gen_kernel_source ~print:(fun s -> s))
    (fun source ->
      match Driver.compile ~entry:"k" source with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | c ->
        let dp = c.Driver.dp in
        let widths = c.Driver.widths in
        let inputs =
          [ "s", -9L ]
          @ List.concat_map
              (fun (w : Roccc_hir.Kernel.window_input) ->
                List.mapi
                  (fun j (_, name) -> name, Int64.of_int ((j * 91 mod 251) - 120))
                  w.Roccc_hir.Kernel.win_scalars)
              c.Driver.kernel.Roccc_hir.Kernel.windows
        in
        let full = Roccc_datapath.Dp_eval.run dp ~inputs in
        let narrow = Roccc_datapath.Dp_eval.run ~widths dp ~inputs in
        full.Roccc_datapath.Dp_eval.outputs
        = narrow.Roccc_datapath.Dp_eval.outputs)

let test_width_signed_mask_regression () =
  (* x & -1 must keep the full width of x (a negative mask is all ones). *)
  let src = "void f(int16 x, int16* o) { *o = x & -1; }" in
  let c = Driver.compile ~entry:"f" src in
  let full =
    Roccc_datapath.Dp_eval.run c.Driver.dp ~inputs:[ "x", -12345L ]
  in
  let narrow =
    Roccc_datapath.Dp_eval.run ~widths:c.Driver.widths c.Driver.dp
      ~inputs:[ "x", -12345L ]
  in
  Alcotest.(check bool) "same value" true
    (full.Roccc_datapath.Dp_eval.outputs
    = narrow.Roccc_datapath.Dp_eval.outputs);
  Alcotest.(check int64) "-12345 preserved" (-12345L)
    (List.assoc "o" narrow.Roccc_datapath.Dp_eval.outputs)

let prop_random_kernels_unoptimized_equal =
  QCheck.Test.make ~count:30
    ~name:"random kernels: optimized = unoptimized hardware results"
    (QCheck.make gen_kernel_source ~print:(fun s -> s))
    (fun source ->
      let arrays =
        [ "A", Array.init 18 (fun i -> Int64.of_int ((i * 53 mod 173) - 80)) ]
      in
      let scalars = [ "s", -7L ] in
      match
        ( Driver.compile ~entry:"k" source,
          Driver.compile
            ~options:
              { Driver.default_options with
                Driver.disabled_passes = [ "vm-optimize" ] }
            ~entry:"k" source )
      with
      | exception Driver.Error _ -> QCheck.assume_fail ()
      | on, off ->
        let r_on = Driver.simulate ~scalars ~arrays on in
        let r_off = Driver.simulate ~scalars ~arrays off in
        r_on.Engine.output_arrays = r_off.Engine.output_arrays)

(* ------------------------------------------------------------------ *)

let suites =
  [ "backend.optimize",
    [ Alcotest.test_case "value numbering shares computations" `Quick
        test_value_numbering_shares;
      Alcotest.test_case "DCE removes dead output init" `Quick
        test_dce_removes_dead_output_init;
      Alcotest.test_case "shrinks and preserves" `Quick
        test_optimize_shrinks_and_preserves;
      Alcotest.test_case "feedback survives optimization" `Quick
        test_optimize_preserves_feedback;
      Alcotest.test_case "ablation: smaller area" `Quick
        test_optimize_ablation_smaller_area ];
    "backend.partial_unroll",
    [ Alcotest.test_case "factor 2 doubles outputs" `Quick
        test_partial_unroll_doubles_outputs;
      Alcotest.test_case "factor 4" `Quick test_partial_unroll_factor_four ];
    "backend.widths_soundness",
    [ Alcotest.test_case "signed mask regression" `Quick
        test_width_signed_mask_regression;
      qcheck_case prop_width_inference_sound ];
    "backend.fuzz",
    [ qcheck_case prop_random_kernels_verify;
      qcheck_case prop_random_kernels_unoptimized_equal ] ]
