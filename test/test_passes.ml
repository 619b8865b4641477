(* The pass manager: verifier coverage, differential semantics checks,
   pass selection, IR dumps (golden files) and deterministic recompiles. *)

module Pass = Roccc_core.Pass
module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Proc = Roccc_vm.Proc
module Instr = Roccc_vm.Instr

let quiet_config () =
  { (Pass.default_config ()) with Pass.on_dump = (fun _ _ -> ()) }

let compile_with ?(disabled_passes = []) config (b : Kernels.benchmark) :
    Driver.compiled =
  Driver.compile ~config
    ~options:
      { (b.Kernels.tune Driver.default_options) with Driver.disabled_passes }
    ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source

(* Acceptance criterion: every Table 1 kernel compiles with every IR
   verifier enabled, zero violations. *)
let test_verify_ir_gallery () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      match
        compile_with { (quiet_config ()) with Pass.verify_ir = true } b
      with
      | (_ : Driver.compiled) -> ()
      | exception Pass.Error msg ->
        Alcotest.failf "verify-ir violation on %s: %s" b.Kernels.bench_name msg)
    Kernels.table1

(* Property: every registered HIR/VM/datapath pass preserves the kernel's
   interpreter semantics on deterministic vectors — the differential
   checker accepts the whole gallery. *)
let test_differential_gallery () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      match
        compile_with
          { (quiet_config ()) with Pass.verify_ir = true; differential = true }
          b
      with
      | (_ : Driver.compiled) -> ()
      | exception Pass.Error msg ->
        Alcotest.failf "differential divergence on %s: %s"
          b.Kernels.bench_name msg)
    Kernels.table1

(* The clock-target sweep: the gallery must hold its verified/differential
   guarantees at every swept clock target, not just the default. *)
let test_target_sweep_gallery () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      List.iter
        (fun tns ->
          let options =
            { (b.Kernels.tune Driver.default_options) with
              Driver.target_ns = tns }
          in
          match
            Driver.compile
              ~config:
                { (quiet_config ()) with
                  Pass.verify_ir = true;
                  differential = true }
              ~options ~luts:b.Kernels.luts ~entry:b.Kernels.entry
              b.Kernels.source
          with
          | (_ : Driver.compiled) -> ()
          | exception Pass.Error msg ->
            Alcotest.failf "%s at %.0f ns: %s" b.Kernels.bench_name tns msg)
        [ 3.0; 5.0; 8.0 ])
    Kernels.table1

(* ------------------------------------------------------------------ *)
(* Verifiers catch corrupted IR                                        *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_verify_cfg_catches_undefined_use () =
  let p = Proc.create "broken" in
  let b = Proc.fresh_block p in
  let k = { Roccc_cfront.Ast.signed = true; bits = 32 } in
  b.Proc.instrs <- [ Instr.make ~dst:1 Instr.Add [ 41; 42 ] k ];
  match Proc.verify_cfg p with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Proc.Ill_formed msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names the register" msg)
      true (contains "v41" msg)

let test_kernel_verify_catches_missing_port () =
  let b = Kernels.fir in
  let c = Kernels.compile b in
  let kernel = c.Driver.kernel in
  let broken =
    { kernel with
      Roccc_hir.Kernel.outputs =
        List.map
          (fun (o : Roccc_hir.Kernel.output) ->
            { o with Roccc_hir.Kernel.port = "nonexistent_port" })
          kernel.Roccc_hir.Kernel.outputs }
  in
  (match Roccc_hir.Kernel.verify broken with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Roccc_hir.Kernel.Ill_formed _ -> ());
  Roccc_hir.Kernel.verify kernel

let test_graph_verify_catches_duplicate_def () =
  let b = Kernels.fir in
  let c = Kernels.compile b in
  let dp = c.Driver.dp in
  Roccc_datapath.Graph.verify dp;
  (* duplicate the first defining instruction somewhere later *)
  let def_instr =
    List.find_map
      (fun (n : Roccc_datapath.Graph.node) ->
        List.find_opt
          (fun (i : Instr.instr) -> i.Instr.dst <> None)
          n.Roccc_datapath.Graph.instrs)
      dp.Roccc_datapath.Graph.nodes
    |> Option.get
  in
  let last = List.nth dp.Roccc_datapath.Graph.nodes
      (List.length dp.Roccc_datapath.Graph.nodes - 1)
  in
  let saved = last.Roccc_datapath.Graph.instrs in
  last.Roccc_datapath.Graph.instrs <- saved @ [ def_instr ];
  (match Roccc_datapath.Graph.verify dp with
  | () -> Alcotest.fail "expected Ill_formed on duplicate definition"
  | exception Roccc_datapath.Graph.Ill_formed _ -> ());
  last.Roccc_datapath.Graph.instrs <- saved;
  Roccc_datapath.Graph.verify dp

let test_ssa_verify_dominance () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      let c = Kernels.compile b in
      Roccc_analysis.Ssa.verify_dominance c.Driver.proc)
    Kernels.table1

let test_pipeline_verify () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      let c = Kernels.compile b in
      Roccc_datapath.Pipeline.verify c.Driver.pipeline)
    Kernels.table1

(* ------------------------------------------------------------------ *)
(* Pass selection                                                      *)
(* ------------------------------------------------------------------ *)

let test_disable_pass () =
  let b = Kernels.fir in
  let c =
    compile_with ~disabled_passes:[ "vm-optimize" ] (quiet_config ()) b
  in
  Alcotest.(check bool)
    "vm-optimize skipped" false
    (List.mem "vm-optimize" c.Driver.pass_trace);
  let full = compile_with (quiet_config ()) b in
  Alcotest.(check bool)
    "vm-optimize runs by default" true
    (List.mem "vm-optimize" full.Driver.pass_trace)

(* Disabling bit-width inference keeps the declared C widths: the pass is
   absent from the trace and the pipeline sees [Widths.declared]. *)
let test_disable_width_inference () =
  let b = Kernels.fir in
  let c =
    compile_with ~disabled_passes:[ "bit-width-inference" ] (quiet_config ()) b
  in
  Alcotest.(check bool)
    "bit-width-inference skipped" false
    (List.mem "bit-width-inference" c.Driver.pass_trace);
  let module Widths = Roccc_datapath.Widths in
  Alcotest.(check int) "declared widths"
    (Widths.total_bits (Widths.declared c.Driver.dp))
    (Widths.total_bits c.Driver.widths)

(* A dump after a pass the options skip — disabled, or gated off — is
   rejected up front, as is an unknown name; a dump after a pass that runs
   is accepted. *)
let test_validate_dump_after () =
  let rejects what ~dump_after options =
    match Pass.validate ~dump_after options with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  let base = Driver.default_options in
  rejects "dump after a disabled pass" ~dump_after:[ "vm-optimize" ]
    { base with Driver.disabled_passes = [ "vm-optimize" ] };
  rejects "dump after a gated-off pass" ~dump_after:[ "lut-conversion" ] base;
  rejects "dump after an unknown pass" ~dump_after:[ "nosuch" ] base;
  Alcotest.(check bool) "dump after a running pass" true
    (Pass.validate ~dump_after:[ "vm-optimize" ] base = Ok ())

let test_disable_required_pass_rejected () =
  let b = Kernels.fir in
  (match
     compile_with ~disabled_passes:[ "scalar-replacement" ] (quiet_config ()) b
   with
  | (_ : Driver.compiled) -> Alcotest.fail "expected rejection"
  | exception Pass.Error msg ->
    Alcotest.(check bool)
      "names the pass" true (contains "scalar-replacement" msg))

let test_unknown_pass_rejected () =
  let b = Kernels.fir in
  let config =
    { (quiet_config ()) with Pass.dump_after = [ "no-such-pass" ] }
  in
  match compile_with config b with
  | (_ : Driver.compiled) -> Alcotest.fail "expected rejection"
  | exception Pass.Error msg ->
    Alcotest.(check bool)
      "names the pass" true (contains "no-such-pass" msg)

(* Errors escaping a pass carry the failing pass's name. *)
let test_error_names_pass () =
  match
    Driver.compile ~entry:"k"
      "void k(int A[8], int B[8], int C[8]) { int i; for (i=0;i<8;i++) C[i] \
       = A[B[i]]; }"
  with
  | (_ : Driver.compiled) -> Alcotest.fail "expected an error"
  | exception Driver.Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names a pass" msg)
      true
      (List.exists
         (fun p ->
           let pre = p ^ ":" in
           String.length msg >= String.length pre
           && String.sub msg 0 (String.length pre) = pre)
         (Pass.pass_names ()))

(* ------------------------------------------------------------------ *)
(* IR dumps: golden files                                              *)
(* ------------------------------------------------------------------ *)

let dump_passes =
  [ "parse"; "constant-fold"; "lower-to-suifvm"; "datapath-build";
    "pipelining"; "retiming"; "vhdl-generation" ]

let collect_dumps (b : Kernels.benchmark) : (string * string) list =
  let dumps = ref [] in
  let config =
    { (Pass.default_config ()) with
      Pass.dump_after = dump_passes;
      on_dump = (fun name text -> dumps := !dumps @ [ name, text ]) }
  in
  let (_ : Driver.compiled) = compile_with config b in
  (* the second constant-fold run overwrites the first: keep the last dump
     per pass name, in dump_passes order *)
  List.map
    (fun name ->
      match List.rev (List.filter (fun (n, _) -> n = name) !dumps) with
      | (_, text) :: _ -> name, text
      | [] -> Alcotest.failf "no dump for %s" name)
    dump_passes

let golden_path name = Printf.sprintf "golden/fir.%s.txt" name

let test_dump_golden () =
  List.iter
    (fun (name, text) ->
      let path = golden_path name in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let expected = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) (Printf.sprintf "dump after %s" name) expected text)
    (collect_dumps Kernels.fir)

(* ------------------------------------------------------------------ *)
(* Deterministic recompiles (resettable id generators)                 *)
(* ------------------------------------------------------------------ *)

let test_recompile_identical () =
  let b = Kernels.fir in
  let c1 = Kernels.compile b in
  let c2 = Kernels.compile b in
  Alcotest.(check string)
    "identical VHDL"
    (Roccc_vhdl.Ast.to_string c1.Driver.design)
    (Roccc_vhdl.Ast.to_string c2.Driver.design);
  Alcotest.(check string)
    "identical VM procedure"
    (Proc.to_string c1.Driver.proc)
    (Proc.to_string c2.Driver.proc);
  Alcotest.(check (list string))
    "identical trace" c1.Driver.pass_trace c2.Driver.pass_trace

(* Pipeline states are shared across compiles (the service's per-pass
   cache), so no pass may mutate the procedure of its input state: SSA
   conversion and the optimizer rewrite a copy, and data-path building
   takes its copy registers from one. Stepping a pass twice from one
   state gives equal procedures. *)
let test_vm_passes_leave_input_unchanged () =
  let source =
    "void k(int A[8], int B[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) {\n\
    \    int t;\n\
    \    if (A[i] > 3) { t = A[i] + 1; } else { t = A[i] * 2; }\n\
    \    B[i] = t + t;\n\
    \  }\n\
     }\n"
  in
  let config = quiet_config () in
  let find name = Option.get (Pass.find name) in
  let st =
    Pass.run ~config
      (Pass.front_passes @ Pass.kernel_passes @ [ find "lower-to-suifvm" ])
      (Pass.initial ~options:Driver.default_options ~entry:"k" source)
  in
  let proc (st : Pass.state) = Option.get st.Pass.st_proc in
  let snapshot st = Proc.to_string (proc st), Proc.reg_universe (proc st) in
  let step_twice name st =
    let before = snapshot st in
    let st1 = Pass.step ~config (find name) st in
    let st2 = Pass.step ~config (find name) st in
    Alcotest.(check (pair string int))
      (name ^ " leaves the input procedure unchanged") before (snapshot st);
    Alcotest.(check string)
      (name ^ " gives the same procedure from a shared state")
      (Proc.to_string (proc st1)) (Proc.to_string (proc st2));
    st1
  in
  let ssa = step_twice "ssa-and-cfg" st in
  Alcotest.(check bool) "ssa-and-cfg rewrote its copy" false
    (String.equal (Proc.to_string (proc st)) (Proc.to_string (proc ssa)));
  let opt = step_twice "vm-optimize" ssa in
  ignore (step_twice "datapath-build" opt)

let suites =
  [ ( "passes",
      [ Alcotest.test_case "verify-ir over Table 1" `Slow test_verify_ir_gallery;
        Alcotest.test_case "differential over Table 1" `Slow
          test_differential_gallery;
        Alcotest.test_case "clock-target sweep over Table 1" `Slow
          test_target_sweep_gallery;
        Alcotest.test_case "cfg verifier catches undefined use" `Quick
          test_verify_cfg_catches_undefined_use;
        Alcotest.test_case "kernel verifier catches missing port" `Quick
          test_kernel_verify_catches_missing_port;
        Alcotest.test_case "graph verifier catches duplicate def" `Quick
          test_graph_verify_catches_duplicate_def;
        Alcotest.test_case "ssa dominance verifier over Table 1" `Slow
          test_ssa_verify_dominance;
        Alcotest.test_case "pipeline verifier over Table 1" `Slow
          test_pipeline_verify;
        Alcotest.test_case "disable-pass drops an optional pass" `Quick
          test_disable_pass;
        Alcotest.test_case "disabling width inference keeps declared widths"
          `Quick test_disable_width_inference;
        Alcotest.test_case "dump-after of a skipped pass is rejected" `Quick
          test_validate_dump_after;
        Alcotest.test_case "disabling a required pass is rejected" `Quick
          test_disable_required_pass_rejected;
        Alcotest.test_case "unknown pass name is rejected" `Quick
          test_unknown_pass_rejected;
        Alcotest.test_case "errors carry the failing pass name" `Quick
          test_error_names_pass;
        Alcotest.test_case "dump-after matches golden files" `Quick
          test_dump_golden;
        Alcotest.test_case "recompilation is byte-identical" `Quick
          test_recompile_identical;
        Alcotest.test_case "VM passes leave their input unchanged" `Quick
          test_vm_passes_leave_input_unchanged ] ) ]
