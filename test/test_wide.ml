(* Tests for the multi-stage operator model: the staged delay descriptors
   (wide widths, constant-operand special cases, stage-budget
   monotonicity), the wide-operator behavioural models against plain
   int64 arithmetic, the pinned-region pipeline invariants on the modsq
   gallery kernel, and the front-end regressions the wide lift exposed
   (64-bit literals and kinds). *)

module Ast = Roccc_cfront.Ast
module Semant = Roccc_cfront.Semant
module Instr = Roccc_vm.Instr
module Delay = Roccc_datapath.Delay
module Pipeline = Roccc_datapath.Pipeline
module Wide = Roccc_ip_wide.Wide
module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Objective = Roccc_tune.Objective
module Search = Roccc_tune.Search

let kind ?(signed = true) bits = Ast.make_ikind ~signed bits

(* ---- staged delay descriptors ---- *)

let test_narrow_stays_single_cycle () =
  (* every pre-existing shape (result <= 32 bits) keeps stages = 1 *)
  List.iter
    (fun (op, k, ws) ->
      let d = Delay.instr_delay op k ws in
      Alcotest.(check int)
        (Instr.opcode_name op ^ " single cycle") 1 d.Delay.stages)
    [ Instr.Add, kind 32, [ 32; 32 ];
      Instr.Mul, kind 16, [ 16; 16 ];
      Instr.Mul, kind 32, [ 16; 16 ];
      Instr.Sub, kind 32, [ 31; 31 ];
      Instr.Band, kind 64, [ 31; 31 ];  (* wide kind, narrow result *)
      Instr.Shr, kind ~signed:false 64, [ 62; 6 ] ]

let test_wide_mul_is_staged () =
  let d = Delay.instr_delay Instr.Mul (kind ~signed:false 64) [ 31; 31 ] in
  Alcotest.(check bool) "wide mul takes > 1 stage" true (d.Delay.stages > 1);
  Alcotest.(check bool) "per-stage delay positive" true
    (d.Delay.per_stage_ns > 0.0);
  (* the decomposed region's stage delay must beat a flat single-cycle
     64-bit multiplier, else staging it is pointless *)
  let flat =
    (Delay.instr_delay Instr.Mul (kind 32) [ 32; 32 ]).Delay.per_stage_ns
  in
  Alcotest.(check bool) "staged beats flat 32x32 estimate" true
    (d.Delay.per_stage_ns < Delay.total_ns d +. flat);
  let add = Delay.instr_delay Instr.Add (kind ~signed:false 64) [ 64; 64 ] in
  Alcotest.(check bool) "wide add staged" true (add.Delay.stages > 1)

let test_constant_operands_stay_cheap () =
  (* a wide multiply by a constant is a shift-add tree, and a power of
     two is pure wiring — stages collapse accordingly *)
  let k = kind ~signed:false 64 in
  let pow2 =
    Delay.instr_delay ~const_operands:[ None; Some 4096L ] Instr.Mul k
      [ 62; 13 ]
  in
  Alcotest.(check int) "x * 4096 is wiring: one stage" 1 pow2.Delay.stages;
  let shift =
    Delay.instr_delay ~const_operands:[ None; Some 31L ] Instr.Shr k [ 62; 5 ]
  in
  Alcotest.(check int) "constant shift stays one stage" 1 shift.Delay.stages;
  Alcotest.(check (float 1e-9)) "constant shift is free" 0.0
    shift.Delay.per_stage_ns;
  let const_mul =
    Delay.instr_delay ~const_operands:[ None; Some 2147483647L ] Instr.Mul k
      [ 33; 31 ]
  in
  let var_mul = Delay.instr_delay Instr.Mul k [ 33; 31 ] in
  Alcotest.(check bool) "constant multiplier no deeper than variable" true
    (const_mul.Delay.stages <= var_mul.Delay.stages)

let test_stage_budget_monotone () =
  (* a larger budget never increases the per-stage delay, and the budget
     caps the region *)
  let k = kind ~signed:false 64 in
  List.iter
    (fun decomp ->
      let natural = Delay.instr_delay ~decomp Instr.Mul k [ 32; 32 ] in
      let prev = ref infinity in
      for budget = 1 to natural.Delay.stages + 2 do
        let d = Delay.instr_delay ~stage_budget:budget ~decomp Instr.Mul k
            [ 32; 32 ]
        in
        Alcotest.(check bool)
          (Printf.sprintf "budget %d respected (%s)" budget
             (Delay.decomp_name decomp))
          true
          (d.Delay.stages <= max budget 1);
        Alcotest.(check bool)
          (Printf.sprintf "budget %d per-stage <= budget %d (%s)" budget
             (budget - 1) (Delay.decomp_name decomp))
          true
          (d.Delay.per_stage_ns <= !prev +. 1e-9);
        prev := d.Delay.per_stage_ns
      done;
      let uncapped = Delay.instr_delay ~stage_budget:0 ~decomp Instr.Mul k
          [ 32; 32 ]
      in
      Alcotest.(check int)
        ("budget 0 = natural depth (" ^ Delay.decomp_name decomp ^ ")")
        natural.Delay.stages uncapped.Delay.stages)
    Delay.all_decomps

(* ---- behavioural models vs int64 ---- *)

let boundary_values =
  [ 0L; 1L; -1L; 2L; -2L; 2147483647L; 2147483648L; -2147483648L;
    4611686018427387904L; Int64.max_int; Int64.min_int;
    0x0123456789ABCDEFL; -81985529216486896L ]

let prng seed =
  let state = ref seed in
  fun () ->
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    !state

let test_wide_models_exact () =
  let next = prng 42L in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> a, b) boundary_values)
      boundary_values
    @ List.init 200 (fun _ -> next (), next ())
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int64)
        (Printf.sprintf "csa_mul %Ld %Ld" a b)
        (Int64.mul a b) (Wide.csa_mul a b);
      Alcotest.(check int64)
        (Printf.sprintf "addtree_mul %Ld %Ld" a b)
        (Int64.mul a b) (Wide.addtree_mul a b);
      Alcotest.(check int64)
        (Printf.sprintf "block_add %Ld %Ld" a b)
        (Int64.add a b) (Wide.block_add a b))
    pairs

let test_csa_reduce_accumulate () =
  let next = prng 7L in
  for _ = 1 to 100 do
    let vs = List.init 7 (fun _ -> next ()) in
    let want = List.fold_left Int64.add 5L vs in
    Alcotest.(check int64) "carry-save accumulator = acc + sum" want
      (Wide.csa_accumulate 5L vs)
  done

(* ---- pinned regions through the pipeliner ---- *)

let compiled_modsq =
  lazy
    (Driver.compile ~entry:Kernels.modsq.Kernels.entry
       Kernels.modsq.Kernels.source)

let test_modsq_has_pinned_regions () =
  let c = Lazy.force compiled_modsq in
  let p = c.Driver.pipeline in
  let regions = Pipeline.staged_regions p in
  Alcotest.(check bool) "at least one multi-stage region" true (regions <> []);
  Alcotest.(check bool) "a wide multiply is among them" true
    (List.exists (fun (i, _, _) -> i.Instr.op = Instr.Mul) regions);
  List.iter
    (fun (i, s, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s region inside schedule" (Instr.opcode_name i.Instr.op))
        true
        (s >= 0 && k > 1 && s + k <= p.Pipeline.stage_count))
    regions;
  Pipeline.verify p

let test_retiming_preserves_pinned_stages () =
  let c = Lazy.force compiled_modsq in
  let p = c.Driver.pipeline in
  let greedy =
    Pipeline.build ~target_ns:c.Driver.options.Driver.target_ns ~retime:false
      p.Pipeline.dp p.Pipeline.widths
  in
  let key q =
    List.sort compare
      (List.map
         (fun (i, s, k) -> i.Instr.dst, Instr.opcode_name i.Instr.op, s, k)
         (Pipeline.staged_regions q))
  in
  Alcotest.(check bool) "region starts survive retiming" true
    (key p = key greedy)

let test_modsq_hw_equals_sw () =
  let b = Kernels.modsq in
  let c = Lazy.force compiled_modsq in
  let arrays = b.Kernels.arrays () in
  Alcotest.(check (list string)) "modsq hardware = software" []
    (Driver.verify ~scalars:b.Kernels.scalars ~arrays c)

let test_stage_budget_caps_pipeline () =
  (* compiling with a tight budget shortens the wide regions (and the
     pipeline), at a slower per-stage clock *)
  let natural = Lazy.force compiled_modsq in
  let budgeted =
    Driver.compile
      ~options:{ Driver.default_options with Driver.stage_budget = 2 }
      ~entry:Kernels.modsq.Kernels.entry Kernels.modsq.Kernels.source
  in
  List.iter
    (fun (i, _, k) ->
      Alcotest.(check bool)
        (Instr.opcode_name i.Instr.op ^ " region within budget") true (k <= 2))
    (Pipeline.staged_regions budgeted.Driver.pipeline);
  Alcotest.(check bool) "budgeted pipeline no longer than natural" true
    (budgeted.Driver.pipeline.Pipeline.stage_count
     <= natural.Driver.pipeline.Pipeline.stage_count);
  let arrays = Kernels.modsq.Kernels.arrays () in
  Alcotest.(check (list string)) "budgeted modsq still hw = sw" []
    (Driver.verify ~arrays budgeted)

let test_addtree_decomp_compiles () =
  let c =
    Driver.compile
      ~options:{ Driver.default_options with Driver.decomp = Delay.Addtree }
      ~entry:Kernels.modsq.Kernels.entry Kernels.modsq.Kernels.source
  in
  Alcotest.(check bool) "addtree modsq still staged" true
    (Pipeline.staged_regions c.Driver.pipeline <> []);
  let arrays = Kernels.modsq.Kernels.arrays () in
  Alcotest.(check (list string)) "addtree modsq hw = sw" []
    (Driver.verify ~arrays c)

(* The stage-budget x decomposition trade-off, searched by the autotuner
   at tight clock targets: staged wide operators (budget 0 = natural
   depth, or >= 2) beat the unstaged points (budget 1: the whole wide
   region in one combinational stage) on achieved clock. *)
let test_staged_beats_unstaged_in_search () =
  let settings =
    { (Search.default_settings
         (Objective.Max_mhz { slice_budget = 100_000 })) with
      Search.st_space =
        { Search.sp_unroll = [ 1 ];
          sp_bus = [ 1 ];
          sp_target_ns = [ 2.0; 3.0 ];
          sp_stage_budget = [ 0; 1; 2; 4 ];
          sp_decomp = Delay.all_decomps } }
  in
  let r =
    Search.run settings ~source:Kernels.modsq.Kernels.source
      ~entry:Kernels.modsq.Kernels.entry
  in
  Alcotest.(check bool) "non-empty front" true (r.Search.res_front <> []);
  let best staged =
    List.fold_left
      (fun acc (row : Search.row) ->
        match row.Search.rw_area with
        | Some m when (row.Search.rw_cand.Search.cd_stage_budget <> 1) = staged
          ->
          Float.max acc m.Roccc_fpga.Area.clock_mhz
        | _ -> acc)
      0.0 r.Search.res_rows
  in
  let unstaged = best false in
  Alcotest.(check bool) "an unstaged point was measured" true (unstaged > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "staged best %.1f MHz > unstaged best %.1f MHz"
       (best true) unstaged)
    true
    (best true > unstaged)

(* ---- front-end regressions (satellite: the dead Const conditional) ---- *)

let empty_env () : Semant.env =
  { Semant.vars = Hashtbl.create 4;
    functions = Hashtbl.create 4;
    luts = Hashtbl.create 4 }

let test_const_typing () =
  let t v = Semant.type_of_expr (empty_env ()) (Ast.Const v) in
  let check name want v =
    let k = t v in
    Alcotest.(check (pair bool int)) name want
      (k.Ast.signed, k.Ast.bits)
  in
  check "small positive literal is int32" (true, 32) 5L;
  check "INT_MAX is int32" (true, 32) 2147483647L;
  (* the regression: 2^31 used to fall into the signed-int32 arm *)
  check "2^31 is unsigned 32" (false, 32) 2147483648L;
  check "2^35 is unsigned 36" (false, 36) 34359738368L;
  check "small negative literal is int32" (true, 32) (-5L);
  check "INT_MIN is int32" (true, 32) (-2147483648L);
  (* the other half of the regression: a wide negative literal used to
     collapse to 32 bits *)
  check "-2^35 is signed 36" (true, 36) (-34359738368L);
  check "min_int is signed 64" (true, 64) Int64.min_int

let test_wide_kinds_accepted () =
  (* uint33..uint64 / int64 declarations parse and make_ikind admits them *)
  let k = Ast.make_ikind ~signed:false 64 in
  Alcotest.(check int) "64-bit kind" 64 k.Ast.bits;
  let src =
    "void widen(uint40 A[4], uint64 C[4]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 4; i++) {\n\
    \    uint64 t;\n\
    \    t = A[i] * 3;\n\
    \    C[i] = t + A[i];\n\
    \  }\n\
     }\n"
  in
  let c = Driver.compile ~entry:"widen" src in
  let arrays =
    [ "A", Array.init 4 (fun i -> Int64.of_int ((i * 98765432) + 1)) ]
  in
  Alcotest.(check (list string)) "wide kinds hw = sw" []
    (Driver.verify ~arrays c)

let suites =
  [ ( "wide.delay",
      [ Alcotest.test_case "narrow shapes stay single-cycle" `Quick
          test_narrow_stays_single_cycle;
        Alcotest.test_case "wide mul/add are staged" `Quick
          test_wide_mul_is_staged;
        Alcotest.test_case "constant operands stay cheap" `Quick
          test_constant_operands_stay_cheap;
        Alcotest.test_case "stage budget is monotone" `Quick
          test_stage_budget_monotone ] );
    ( "wide.models",
      [ Alcotest.test_case "csa/addtree/block = int64 arithmetic" `Quick
          test_wide_models_exact;
        Alcotest.test_case "carry-save accumulator" `Quick
          test_csa_reduce_accumulate ] );
    ( "wide.pipeline",
      [ Alcotest.test_case "modsq has pinned regions" `Quick
          test_modsq_has_pinned_regions;
        Alcotest.test_case "retiming preserves pinned stages" `Quick
          test_retiming_preserves_pinned_stages;
        Alcotest.test_case "modsq hardware = software" `Quick
          test_modsq_hw_equals_sw;
        Alcotest.test_case "stage budget caps regions" `Quick
          test_stage_budget_caps_pipeline;
        Alcotest.test_case "addtree decomposition compiles" `Quick
          test_addtree_decomp_compiles;
        Alcotest.test_case "staged beats unstaged in the search" `Quick
          test_staged_beats_unstaged_in_search ] );
    ( "wide.front",
      [ Alcotest.test_case "const literal typing" `Quick test_const_typing;
        Alcotest.test_case "wide kinds accepted end-to-end" `Quick
          test_wide_kinds_accepted ] ) ]
