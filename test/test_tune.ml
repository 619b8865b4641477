(* Tests for the Pareto autotuner (lib/tune): the dominance relation,
   front extraction, objective parsing, the search's front against one
   built by compiling every candidate, determinism across worker counts,
   mid-end cache reuse across candidates, and the CLI's sweep-axis
   validators. *)

module Driver = Roccc_core.Driver
module Service = Roccc_service.Service
module Server = Roccc_service.Server
module Cache = Roccc_service.Cache
module Trace = Roccc_service.Trace
module Pareto = Roccc_tune.Pareto
module Objective = Roccc_tune.Objective
module Search = Roccc_tune.Search

(* trip count 16 so unroll 2 and 4 divide it *)
let fir16_source =
  "void fir(int A[20], int C[16]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 16; i = i + 1) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

(* a design's metrics on the three Pareto axes *)
let m s c l =
  { Roccc_fpga.Area.slices = s;
    clock_mhz = c;
    latch_bits = l;
    luts = 0;
    flip_flops = 0;
    rom_luts = 0;
    operator_slices = 0;
    latency = 0;
    greedy_latch_bits = 0;
    outputs_per_cycle = 0;
    breakdown = [] }

(* ---- dominance ---- *)

let test_dominates () =
  Alcotest.(check bool) "better on all axes" true
    (Pareto.dominates (m 100 50.0 10) (m 200 40.0 20));
  Alcotest.(check bool) "reverse direction" false
    (Pareto.dominates (m 200 40.0 20) (m 100 50.0 10));
  Alcotest.(check bool) "equal points never dominate" false
    (Pareto.dominates (m 100 50.0 10) (m 100 50.0 10));
  Alcotest.(check bool) "equal but one axis strictly better" true
    (Pareto.dominates (m 100 50.0 9) (m 100 50.0 10));
  Alcotest.(check bool) "trade-off is incomparable" false
    (Pareto.dominates (m 100 40.0 10) (m 200 50.0 20))

let test_front () =
  let pts =
    [ ("a", m 100 50.0 10);  (* front *)
      ("b", m 200 40.0 20);  (* dominated by a *)
      ("c", m 50 30.0 5);    (* front: fewer slices than a *)
      ("d", m 100 50.0 10);  (* duplicate of a: kept *)
      ("e", m 300 60.0 30) ] (* front: fastest clock *)
  in
  let front = Pareto.front pts in
  Alcotest.(check (list string)) "front members, input order"
    [ "a"; "c"; "d"; "e" ]
    (List.map fst front);
  (* no element of the front is dominated by any input point *)
  List.iter
    (fun (_, fm) ->
      Alcotest.(check bool) "front point undominated" false
        (List.exists (fun (_, pm) -> Pareto.dominates pm fm) pts))
    front

(* ---- objectives ---- *)

let test_objective_parse () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  (match ok (Objective.parse ~name:"max-mhz" ~slice_budget:(Some 400) ~target_mhz:None) with
  | Objective.Max_mhz { slice_budget } ->
    Alcotest.(check int) "budget" 400 slice_budget
  | _ -> Alcotest.fail "expected Max_mhz");
  (match ok (Objective.parse ~name:"max-mhz" ~slice_budget:None ~target_mhz:None) with
  | Objective.Max_mhz { slice_budget } ->
    Alcotest.(check int) "default budget is the whole device"
      Roccc_fpga.Area.xc2v2000_slices slice_budget
  | _ -> Alcotest.fail "expected Max_mhz");
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown objective" true
    (is_err (Objective.parse ~name:"min-watts" ~slice_budget:None ~target_mhz:None));
  Alcotest.(check bool) "target-mhz rejected for max-mhz" true
    (is_err (Objective.parse ~name:"max-mhz" ~slice_budget:None ~target_mhz:(Some 100.0)));
  Alcotest.(check bool) "slice-budget rejected for min-slices" true
    (is_err (Objective.parse ~name:"min-slices" ~slice_budget:(Some 400) ~target_mhz:None));
  Alcotest.(check bool) "non-positive budget rejected" true
    (is_err (Objective.parse ~name:"max-mhz" ~slice_budget:(Some 0) ~target_mhz:None))

let test_objective_feasible_fitness () =
  let obj = Objective.Max_mhz { slice_budget = 150 } in
  Alcotest.(check bool) "within budget" true (Objective.feasible obj (m 150 50.0 10));
  Alcotest.(check bool) "over budget" false (Objective.feasible obj (m 151 50.0 10));
  Alcotest.(check bool) "fitness prefers faster clock" true
    (Objective.fitness obj (m 100 60.0 10) > Objective.fitness obj (m 100 50.0 10));
  let obj = Objective.Min_slices { target_mhz = 80.0 } in
  Alcotest.(check bool) "clock at target" true (Objective.feasible obj (m 100 80.0 10));
  Alcotest.(check bool) "clock below target" false (Objective.feasible obj (m 100 79.9 10));
  Alcotest.(check bool) "fitness prefers fewer slices" true
    (Objective.fitness obj (m 100 90.0 10) > Objective.fitness obj (m 200 90.0 10));
  Alcotest.(check bool) "min-latch-bits always feasible" true
    (Objective.feasible Objective.Min_latch_bits (m 10_000_000 0.1 10));
  Alcotest.(check bool) "fitness prefers fewer latch bits" true
    (Objective.fitness Objective.Min_latch_bits (m 100 50.0 5)
    > Objective.fitness Objective.Min_latch_bits (m 100 50.0 10))

(* ---- search ---- *)

let small_space =
  { Search.sp_unroll = [ 1; 2 ];
    sp_bus = [ 1; 2 ];
    sp_target_ns = [ 5.0; 8.0 ];
    sp_stage_budget = [ 0 ];
    sp_decomp = [ Roccc_datapath.Delay.Csa ] }

let settings ?(domains = 1) obj =
  { (Search.default_settings obj) with
    Search.st_space = small_space;
    st_domains = domains }

let front_labels (r : Search.result) : string list =
  List.map (fun ((rw : Search.row), _) -> rw.Search.rw_label) r.Search.res_front

(* The reference front, built without the search: compile every grid
   point in full, keep the feasible ones and take their Pareto front. *)
let reference_front obj : string list =
  let points =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun b ->
            List.map
              (fun t ->
                let options =
                  { Driver.default_options with
                    Driver.unroll_outer_factor = u;
                    bus_elements = b;
                    target_ns = t }
                in
                let c = Driver.compile ~options ~entry:"fir" fir16_source in
                ( Printf.sprintf "fir.u%d.b%d.t%g" u b t,
                  m c.Driver.area.Roccc_fpga.Area.slices
                    c.Driver.area.Roccc_fpga.Area.clock_mhz
                    c.Driver.pipeline.Roccc_datapath.Pipeline.latch_bits ))
              small_space.Search.sp_target_ns)
          small_space.Search.sp_bus)
      small_space.Search.sp_unroll
  in
  List.map fst
    (Pareto.front (List.filter (fun (_, p) -> Objective.feasible obj p) points))

let test_front_matches_reference () =
  List.iter
    (fun obj ->
      let name = Objective.describe obj in
      let r = Search.run (settings obj) ~source:fir16_source ~entry:"fir" in
      Alcotest.(check (list string))
        (name ^ ": same front as compiling every candidate")
        (List.sort compare (reference_front obj))
        (List.sort compare (front_labels r));
      List.iter
        (fun (rw : Search.row) ->
          match rw.Search.rw_status with
          | Search.Failed _ -> ()
          | _ ->
            Alcotest.(check bool)
              (name ^ ": " ^ rw.Search.rw_label ^ " is measured")
              true
              (rw.Search.rw_area <> None))
        r.Search.res_rows)
    [ Objective.Max_mhz { slice_budget = 400 };
      Objective.Min_slices { target_mhz = 100.0 };
      Objective.Min_latch_bits ]

let test_front_is_nondominated_and_feasible () =
  let budget = 400 in
  let obj = Objective.Max_mhz { slice_budget = budget } in
  let r = Search.run (settings obj) ~source:fir16_source ~entry:"fir" in
  Alcotest.(check bool) "front is non-empty" true (r.Search.res_front <> []);
  let metrics =
    List.map
      (fun ((rw : Search.row), _) -> Option.get rw.Search.rw_area)
      r.Search.res_front
  in
  List.iter
    (fun pm ->
      Alcotest.(check bool) "front point within budget" true
        (pm.Roccc_fpga.Area.slices <= budget);
      Alcotest.(check bool) "no front point dominates another" false
        (List.exists (fun qm -> Pareto.dominates qm pm) metrics))
    metrics

let test_fewer_full_compiles_than_grid () =
  let obj = Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices } in
  let r = Search.run (settings obj) ~source:fir16_source ~entry:"fir" in
  Alcotest.(check int) "whole grid explored" 8 r.Search.res_explored;
  Alcotest.(check bool) "strictly fewer full compiles than exhaustive" true
    (r.Search.res_full_evals < r.Search.res_explored);
  Alcotest.(check int) "full compiles only for the front"
    (List.length r.Search.res_front)
    r.Search.res_full_evals

(* The uncached pass spans of a traced search, counted per pass name. *)
let pass_runs (tr : Trace.t) : (string * int) list =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.sp_cat = "pass" && not (List.mem_assoc "cached" s.Trace.sp_args)
      then
        Hashtbl.replace counts s.Trace.sp_name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.Trace.sp_name)))
    (Trace.spans tr);
  List.sort compare (List.of_seq (Hashtbl.to_seq counts))

(* One worker and four give the same rows, the same front and the same
   passes run: a state another worker is computing is waited for, not
   computed twice. dct is loop-free, so its unroll factors converge on
   one back end per clock target. *)
let test_deterministic_across_domains () =
  let statuses r =
    List.map
      (fun (rw : Search.row) ->
        ( rw.Search.rw_label,
          match rw.Search.rw_status with
          | Search.On_front -> "front"
          | Search.Dominated -> "dominated"
          | Search.Infeasible -> "infeasible"
          | Search.Failed reason -> "failed: " ^ reason ))
      r.Search.res_rows
  in
  let dct = Roccc_core.Kernels.dct in
  List.iter
    (fun (name, obj, space, source, entry, luts) ->
      let run domains =
        let trace = Trace.create () in
        let st = { (settings ~domains obj) with Search.st_space = space } in
        let r = Search.run ~trace ~luts st ~source ~entry in
        r, pass_runs trace
      in
      let r1, runs1 = run 1 and r4, runs4 = run 4 in
      Alcotest.(check (list string)) (name ^ ": same front under 4 workers")
        (front_labels r1) (front_labels r4);
      Alcotest.(check (list (pair string string)))
        (name ^ ": same per-candidate statuses")
        (statuses r1) (statuses r4);
      Alcotest.(check (list (pair string int)))
        (name ^ ": same passes run") runs1 runs4)
    [ "fir", Objective.Min_slices { target_mhz = 0.0 }, small_space,
      fir16_source, "fir", [];
      "dct",
      Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices },
      Search.default_space, dct.Roccc_core.Kernels.source,
      dct.Roccc_core.Kernels.entry, dct.Roccc_core.Kernels.luts ]

let test_cache_shares_midend () =
  (* all candidates share unroll=1, so the whole grid has one mid-end
     prefix: every mid-end pass must compile exactly once, and every
     later candidate must reuse it (zero-duration [cached] spans). The
     back end is shared too: everything before pipelining runs once,
     pipelining and retiming once per clock target. *)
  let obj = Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices } in
  let st =
    { (settings obj) with
      Search.st_space =
        { small_space with
          Search.sp_unroll = [ 1 ];
          sp_bus = [ 1; 2 ];
          sp_target_ns = [ 3.0; 5.0 ] } }
  in
  let trace = Trace.create () in
  let cache = Cache.create () in
  let r = Search.run ~cache ~trace st ~source:fir16_source ~entry:"fir" in
  Alcotest.(check int) "four candidates" 4 r.Search.res_explored;
  let spans = Trace.spans trace in
  let parse_runs, parse_cached =
    List.partition
      (fun (s : Trace.span) ->
        not (List.mem_assoc "cached" s.Trace.sp_args))
      (List.filter
         (fun (s : Trace.span) ->
           s.Trace.sp_cat = "pass" && s.Trace.sp_name = "parse")
         spans)
  in
  Alcotest.(check int) "parse compiled once for the whole search" 1
    (List.length parse_runs);
  Alcotest.(check bool) "later candidates reuse it as cached spans" true
    (List.length parse_cached > 0);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check (float 0.0)) "cached spans have zero duration" 0.0
        s.Trace.sp_dur_s)
    parse_cached;
  let runs name = Option.value ~default:0 (List.assoc_opt name (pass_runs trace)) in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " runs once for the whole search") 1
        (runs name))
    [ "lower-to-suifvm"; "ssa-and-cfg"; "vm-optimize"; "datapath-build";
      "bit-width-inference" ];
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " runs once per target-ns") 2 (runs name))
    [ "pipelining"; "retiming" ]

(* dct has no loop, so its twelve unroll x bus points per clock target
   converge on one mid end and one back end: the mid end and the front
   half of the back end run once, pipelining and retiming once per clock
   target, and the front points that differ only in unroll or bus width
   generate and lint their VHDL once per clock target. *)
let test_loop_free_grid_converges () =
  let dct = Roccc_core.Kernels.dct in
  let obj = Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices } in
  let st = { (settings obj) with Search.st_space = Search.default_space } in
  let trace = Trace.create () in
  let r =
    Search.run ~trace ~luts:dct.Roccc_core.Kernels.luts st
      ~source:dct.Roccc_core.Kernels.source ~entry:dct.Roccc_core.Kernels.entry
  in
  Alcotest.(check int) "36 candidates" 36 r.Search.res_explored;
  Alcotest.(check int) "every point on the front" 36
    (List.length r.Search.res_front);
  let runs name = Option.value ~default:0 (List.assoc_opt name (pass_runs trace)) in
  List.iter
    (fun (name, n) -> Alcotest.(check int) (name ^ " runs") n (runs name))
    [ "parse", 1; "ssa-and-cfg", 1; "bit-width-inference", 1;
      "partial-unroll", 0; "pipelining", 3; "retiming", 3;
      "vhdl-generation", 3; "vhdl-lint", 3 ]

(* A front point's full compile resumes from the retimed state its
   estimate stored; its VHDL must still be byte-equal to a plain
   compile at that point's options. *)
let test_front_vhdl_matches_compile () =
  let obj = Objective.Max_mhz { slice_budget = 4000 } in
  List.iter
    (fun (name, source, entry, luts) ->
      let st = { (settings obj) with Search.st_space = Search.default_space } in
      let r = Search.run ~luts st ~source ~entry in
      Alcotest.(check bool) (name ^ ": front is non-empty") true
        (r.Search.res_front <> []);
      List.iter
        (fun ((rw : Search.row), (s : Service.success)) ->
          let c = rw.Search.rw_cand in
          let options =
            { st.Search.st_base with
              Driver.unroll_outer_factor = c.Search.cd_unroll;
              bus_elements = c.Search.cd_bus;
              target_ns = c.Search.cd_target_ns;
              stage_budget = c.Search.cd_stage_budget;
              decomp = c.Search.cd_decomp }
          in
          let compiled = Driver.compile ~options ~luts ~entry source in
          Alcotest.(check (list (pair string string)))
            (rw.Search.rw_label ^ ": VHDL equals Driver.compile")
            (Service.vhdl_files compiled) s.Service.r_vhdl)
        r.Search.res_front)
    (* the tune-front kernels; fir16's and modsq's files include the
       system wrapper, whose text depends on the pipeline latency *)
    (( "fir16", fir16_source, "fir", [] )
    :: List.map
         (fun (b : Roccc_core.Kernels.benchmark) ->
           ( b.Roccc_core.Kernels.bench_name,
             b.Roccc_core.Kernels.source,
             b.Roccc_core.Kernels.entry,
             b.Roccc_core.Kernels.luts ))
         Roccc_core.Kernels.[ dct; modsq; mul_acc; wavelet ])

(* A search renders each distinct design once: dct's 36 front points
   are 3 designs (one per clock target), so their artifacts hold 3
   physically distinct file lists. Under four workers a render that
   another worker is computing is waited for, not computed again. *)
let test_front_renders_each_design_once () =
  let dct = Roccc_core.Kernels.dct in
  let obj = Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices } in
  List.iter
    (fun domains ->
      let st =
        { (settings ~domains obj) with Search.st_space = Search.default_space }
      in
      let r =
        Search.run ~luts:dct.Roccc_core.Kernels.luts st
          ~source:dct.Roccc_core.Kernels.source
          ~entry:dct.Roccc_core.Kernels.entry
      in
      let distinct =
        List.fold_left
          (fun seen (_, (s : Service.success)) ->
            if List.memq s.Service.r_vhdl seen then seen
            else s.Service.r_vhdl :: seen)
          [] r.Search.res_front
      in
      let name = Printf.sprintf "-j %d: " domains in
      Alcotest.(check int) (name ^ "36 front points") 36
        (List.length r.Search.res_front);
      Alcotest.(check int) (name ^ "3 rendered file lists") 3
        (List.length distinct))
    [ 1; 4 ]

let test_duplicate_axis_points_collapse () =
  let obj = Objective.Min_latch_bits in
  let st =
    { (settings obj) with
      Search.st_space =
        { small_space with
          Search.sp_unroll = [ 1; 1; 1 ];
          sp_bus = [ 2; 2 ];
          sp_target_ns = [ 5.0; 5.0 ] } }
  in
  let r = Search.run st ~source:fir16_source ~entry:"fir" in
  Alcotest.(check int) "duplicated points compile once" 1 r.Search.res_explored

(* ---- CLI axis validators ---- *)

let test_axis_validators () =
  (match Server.check_positive_int_list ~flag:"--unroll" [ 4; 2; 4; 2 ] with
  | Ok vs ->
    Alcotest.(check (list int)) "dedupe keeps first occurrences" [ 4; 2 ] vs
  | Error e -> Alcotest.fail e);
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "zero rejected" true
    (is_err (Server.check_positive_int_list ~flag:"--unroll" [ 1; 0 ]));
  Alcotest.(check bool) "negative rejected" true
    (is_err (Server.check_positive_int_list ~flag:"--unroll" [ -2 ]));
  Alcotest.(check bool) "empty list rejected" true
    (is_err (Server.check_positive_int_list ~flag:"--unroll" []));
  (match Server.check_positive_float_list ~flag:"--target-ns" [ 5.0; 3.0; 5.0 ] with
  | Ok vs -> Alcotest.(check (list (float 0.0))) "float dedupe" [ 5.0; 3.0 ] vs
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "zero ns rejected" true
    (is_err (Server.check_positive_float_list ~flag:"--target-ns" [ 0.0 ]));
  Alcotest.(check bool) "nan rejected" true
    (is_err (Server.check_positive_float_list ~flag:"--target-ns" [ Float.nan ]))

(* ---- serialization ---- *)

let test_json_and_table () =
  let obj = Objective.Max_mhz { slice_budget = Roccc_fpga.Area.xc2v2000_slices } in
  let r = Search.run (settings obj) ~source:fir16_source ~entry:"fir" in
  let json = Search.to_json r in
  (match Roccc_service.Json.parse json with
  | Error e -> Alcotest.fail ("pareto.json does not parse: " ^ e)
  | Ok j ->
    let int_member k =
      match Option.bind (Roccc_service.Json.member k j) Roccc_service.Json.to_int_opt with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ k)
    in
    Alcotest.(check int) "explored field" r.Search.res_explored (int_member "explored");
    Alcotest.(check int) "full_evals field" r.Search.res_full_evals (int_member "full_evals");
    Alcotest.(check int) "front_size field"
      (List.length r.Search.res_front)
      (int_member "front_size"));
  let table = Search.table r in
  Alcotest.(check bool) "table names the objective" true
    (let rec contains i =
       i + 7 <= String.length table
       && (String.sub table i 7 = "max-mhz" || contains (i + 1))
     in
     contains 0)

let suites =
  [ ( "tune.pareto",
      [ Alcotest.test_case "dominates" `Quick test_dominates;
        Alcotest.test_case "front extraction" `Quick test_front ] );
    ( "tune.objective",
      [ Alcotest.test_case "parse" `Quick test_objective_parse;
        Alcotest.test_case "feasibility and fitness" `Quick
          test_objective_feasible_fitness ] );
    ( "tune.search",
      [ Alcotest.test_case "front matches compiling every point" `Quick
          test_front_matches_reference;
        Alcotest.test_case "front is feasible and non-dominated" `Quick
          test_front_is_nondominated_and_feasible;
        Alcotest.test_case "fewer full compiles than the grid" `Quick
          test_fewer_full_compiles_than_grid;
        Alcotest.test_case "deterministic across worker counts" `Quick
          test_deterministic_across_domains;
        Alcotest.test_case "mid-end compiles once across candidates" `Quick
          test_cache_shares_midend;
        Alcotest.test_case "loop-free grid converges" `Quick
          test_loop_free_grid_converges;
        Alcotest.test_case "front VHDL equals a plain compile" `Quick
          test_front_vhdl_matches_compile;
        Alcotest.test_case "front renders each design once" `Quick
          test_front_renders_each_design_once;
        Alcotest.test_case "duplicate axis points collapse" `Quick
          test_duplicate_axis_points_collapse ] );
    ( "tune.cli",
      [ Alcotest.test_case "axis validators" `Quick test_axis_validators;
        Alcotest.test_case "pareto json and table" `Quick test_json_and_table ] )
  ]
