(* Tests for the batch compilation service (lib/service): the
   content-addressed pass cache, the domain scheduler, structured tracing
   and the typed VM error. *)

module Driver = Roccc_core.Driver
module Pass = Roccc_core.Pass
module Service = Roccc_service.Service
module Cache = Roccc_service.Cache
module Trace = Roccc_service.Trace
module Pool = Roccc_service.Pool
module Fingerprint = Roccc_service.Fingerprint
module Instr = Roccc_vm.Instr
module Area = Roccc_fpga.Area
module Kernels = Roccc_core.Kernels

let fir_source = Roccc_core.Kernels.paper_fir_source

let acc_source = Roccc_core.Kernels.paper_acc_source

let bad_source = "void broken(int A[8], int* out) {\n  int i\n  *out = 1;\n}\n"

let fir_job ?(label = "fir") ?(options = Driver.default_options) () =
  { Service.label; source = fir_source; entry = "fir"; options; luts = [] }

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let origin = Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Service.origin_name o))
    (fun a b -> a = b)

let area = Alcotest.testable
    (fun ppf (a : Area.estimate) ->
      Format.fprintf ppf "%s  latency %d, latch bits %d (greedy %d), %d out/cycle"
        (Area.describe a) a.Area.latency a.Area.latch_bits
        a.Area.greedy_latch_bits a.Area.outputs_per_cycle)
    (fun a b -> a = b)

let fresh_tmp_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* ---- cache ---- *)

let test_cache_hit_identical () =
  let cache = Cache.create () in
  let r1 = Service.compile_cached ~cache (fir_job ()) in
  let r2 = Service.compile_cached ~cache (fir_job ()) in
  Alcotest.check origin "first compile is cold" Service.Cold
    r1.Service.r_origin;
  Alcotest.check origin "identical job hits memory" Service.Warm_memory
    r2.Service.r_origin;
  Alcotest.(check bool) "same VHDL" true
    (r1.Service.r_vhdl = r2.Service.r_vhdl);
  let s = Cache.stats cache in
  Alcotest.(check bool) "hits counted" true (s.Cache.hits > 0)

let test_cache_miss_on_option_change () =
  let cache = Cache.create () in
  let _ = Service.compile_cached ~cache (fir_job ()) in
  (* a back-end option change misses the full artifact but reuses the
     front-end stages *)
  let bus2 =
    fir_job ~options:{ Driver.default_options with Driver.bus_elements = 2 } ()
  in
  let r2 = Service.compile_cached ~cache bus2 in
  Alcotest.check origin "bus change reuses stages only" Service.Warm_stage
    r2.Service.r_origin;
  (* a front-end option change invalidates the chain from the first
     affected pass but still resumes from the shared prefix (parse through
     the first constant-fold) *)
  let unrolled =
    fir_job
      ~options:{ Driver.default_options with Driver.unroll_inner_max = 4 } ()
  in
  let r3 = Service.compile_cached ~cache unrolled in
  Alcotest.check origin "front option change resumes mid-pipeline"
    Service.Warm_partial r3.Service.r_origin;
  (* and a source change too *)
  let other =
    { (fir_job ()) with Service.source = acc_source; entry = "acc";
      label = "acc" }
  in
  let r4 = Service.compile_cached ~cache other in
  Alcotest.check origin "source change is cold" Service.Cold
    r4.Service.r_origin

(* A loop-free kernel gives partial unrolling nothing to unroll: the pass
   is skipped and leaves the chain key unchanged, so unroll 8 converges on
   unroll 1's states and runs only the back end. *)
let test_loop_free_unroll_converges () =
  let cache = Cache.create () in
  let dct = Roccc_core.Kernels.dct in
  let job unroll =
    { Service.label = Printf.sprintf "dct.u%d" unroll;
      source = dct.Roccc_core.Kernels.source;
      entry = dct.Roccc_core.Kernels.entry;
      options = { Driver.default_options with Driver.unroll_outer_factor = unroll };
      luts = dct.Roccc_core.Kernels.luts }
  in
  let r1 = Service.compile_cached ~cache (job 1) in
  let r8 = Service.compile_cached ~cache (job 8) in
  Alcotest.check origin "unroll 1 is cold" Service.Cold r1.Service.r_origin;
  Alcotest.check origin "unroll 8 reuses every mid-end state"
    Service.Warm_stage r8.Service.r_origin;
  Alcotest.(check (list (pair string string))) "byte-equal VHDL"
    r1.Service.r_vhdl r8.Service.r_vhdl;
  Alcotest.(check bool) "partial-unroll skipped" false
    (List.mem "partial-unroll" r8.Service.r_pass_trace)

(* The passes a compile of [job] on [cache] runs rather than reuses, in
   execution order, read off its trace. *)
let uncached_passes ?share_back_end cache job =
  let trace = Trace.create () in
  ignore (Service.compile_cached ~cache ?share_back_end ~trace job);
  List.filter_map
    (fun (sp : Trace.span) ->
      if sp.Trace.sp_cat = "pass" && not (List.mem_assoc "cached" sp.Trace.sp_args)
      then Some sp.Trace.sp_name
      else None)
    (Trace.spans trace)

(* Each pass's option fingerprint links the state chain: a recompile on
   one cache re-runs only from the first pass that reads a changed
   option. *)
let test_option_fingerprints () =
  (* trip count 16, so unroll 2 divides it *)
  let source =
    "void fir(int A[20], int C[16]) { int i; for (i = 0; i < 16; i = i + 1) \
     { C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }"
  in
  let with_options f =
    { (fir_job ~options:(f Driver.default_options) ()) with Service.source }
  in
  let bus2 = with_options (fun o -> { o with Driver.bus_elements = 2 }) in
  let tns3 = with_options (fun o -> { o with Driver.target_ns = 3.0 }) in
  let unroll2 =
    with_options (fun o -> { o with Driver.unroll_outer_factor = 2 })
  in
  let base = with_options Fun.id in
  let cache = Cache.create () in
  let cold = uncached_passes ~share_back_end:true cache base in
  Alcotest.(check (list string)) "the chain runs parse to area-estimation"
    [ "parse"; "area-estimation" ]
    [ List.hd cold; List.hd (List.rev cold) ];
  Alcotest.(check (list string)) "bus width re-runs only area-estimation"
    [ "area-estimation" ]
    (uncached_passes ~share_back_end:true cache bus2);
  Alcotest.(check (list string)) "clock target re-runs pipelining onwards"
    [ "pipelining"; "retiming"; "vhdl-generation"; "vhdl-lint";
      "area-estimation" ]
    (uncached_passes ~share_back_end:true cache tns3);
  let unrolled = uncached_passes cache unroll2 in
  Alcotest.(check bool) "unroll factor re-runs the mid end" true
    (List.mem "partial-unroll" unrolled
    && List.mem "scalar-replacement" unrolled
    && List.mem "feedback-detection" unrolled);
  Alcotest.(check bool) "unroll factor reuses the passes before it" false
    (List.mem "parse" unrolled)

(* Regression: the finished artifact's key includes the passes that run —
   a job disabling an optional pass must not be served the default job's
   artifact, and vice versa. *)
let test_artifact_key_sees_pass_selection () =
  let cache = Cache.create () in
  let r1 = Service.compile_cached ~cache (fir_job ()) in
  Alcotest.check origin "default compile is cold" Service.Cold
    r1.Service.r_origin;
  let no_opt () =
    fir_job
      ~options:
        { Driver.default_options with
          Driver.disabled_passes = [ "vm-optimize" ] }
      ()
  in
  let r2 = Service.compile_cached ~cache (no_opt ()) in
  (match r2.Service.r_origin with
  | Service.Warm_memory | Service.Warm_disk | Service.Coalesced ->
    Alcotest.fail "selection change was served the default artifact"
  | Service.Cold | Service.Warm_partial | Service.Warm_stage -> ());
  Alcotest.(check bool) "disabled pass absent from the trace" false
    (List.mem "vm-optimize" r2.Service.r_pass_trace);
  let r3 = Service.compile_cached ~cache (no_opt ()) in
  Alcotest.check origin "identical selection hits the artifact"
    Service.Warm_memory r3.Service.r_origin;
  let r4 = Service.compile_cached ~cache (fir_job ()) in
  Alcotest.check origin "default selection still has its own artifact"
    Service.Warm_memory r4.Service.r_origin

(* Pass lists that run the same passes name the same artifact: disabling
   a pass already gated off, or reordering and repeating the list, hits
   the default compile's artifact instead of compiling cold. *)
let test_equivalent_selections_share_artifact () =
  let cache = Cache.create () in
  let _ = Service.compile_cached ~cache (fir_job ()) in
  let with_disabled disabled_passes =
    fir_job ~options:{ Driver.default_options with Driver.disabled_passes } ()
  in
  let r = Service.compile_cached ~cache (with_disabled [ "lut-conversion" ]) in
  Alcotest.check origin "gated-off pass disabled hits the default artifact"
    Service.Warm_memory r.Service.r_origin;
  let _ =
    Service.compile_cached ~cache
      (with_disabled [ "retiming"; "vm-optimize" ])
  in
  let r =
    Service.compile_cached ~cache
      (with_disabled [ "vm-optimize"; "retiming"; "vm-optimize" ])
  in
  Alcotest.check origin "reordered, repeated list hits the same artifact"
    Service.Warm_memory r.Service.r_origin

(* One metrics record on every path: for each gallery kernel at its
   tuned options, a plain compile's [area], the tuner's costing and the
   cached compile's [r_area] — cold, from memory, and reloaded from disk
   by a fresh cache (a new process) — are structurally equal, and the
   three fields the benchmark harness reads copy the record. *)
let test_disk_cache_survives_process () =
  let dir = fresh_tmp_dir "roccc_cache_test" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache1 = Cache.create ~disk_dir:dir () in
      List.iter
        (fun (b : Kernels.benchmark) ->
          let name = b.Kernels.bench_name in
          let job =
            { Service.label = name;
              source = b.Kernels.source;
              entry = b.Kernels.entry;
              options = b.Kernels.tune Driver.default_options;
              luts = b.Kernels.luts }
          in
          let plain = (Kernels.compile b).Driver.area in
          let cold = Service.compile_cached ~cache:cache1 job in
          let warm = Service.compile_cached ~cache:cache1 job in
          let disk =
            Service.compile_cached ~cache:(Cache.create ~disk_dir:dir ()) job
          in
          Alcotest.check origin (name ^ " cold in the first cache")
            Service.Cold cold.Service.r_origin;
          Alcotest.check origin (name ^ " from memory") Service.Warm_memory
            warm.Service.r_origin;
          Alcotest.check origin (name ^ " reloaded from disk")
            Service.Warm_disk disk.Service.r_origin;
          Alcotest.(check bool) (name ^ " identical VHDL from disk") true
            (cold.Service.r_vhdl = disk.Service.r_vhdl);
          List.iter
            (fun (path, a) -> Alcotest.check area (name ^ " " ^ path) plain a)
            [ "costing", Service.measure_cached job;
              "cold", cold.Service.r_area;
              "memory", warm.Service.r_area;
              "disk", disk.Service.r_area ];
          List.iter
            (fun (s : Service.success) ->
              let a = s.Service.r_area in
              Alcotest.(check bool) (name ^ " copies equal r_area") true
                ({ s with
                   Service.r_slices = a.Area.slices;
                   r_clock_mhz = a.Area.clock_mhz;
                   r_latch_bits = a.Area.latch_bits }
                = s))
            [ cold; warm; disk ])
        Kernels.gallery)

(* An artifact an older build wrote, behind the previous format tag,
   reads as a miss: a fresh cache compiles cold, raises nothing and gives
   the same design. *)
let test_old_disk_format_is_a_miss () =
  let dir = fresh_tmp_dir "roccc_old_format" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let first =
        Service.compile_cached ~cache:(Cache.create ~disk_dir:dir ())
          (fir_job ())
      in
      let arts =
        List.filter
          (fun f -> Filename.check_suffix f ".art")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check bool) "an artifact was written" true (arts <> []);
      (* the previous tag before a value of the previous artifact shape *)
      let old =
        "ROCCC-ART2"
        ^ Marshal.to_string
            ("fir", [ "fir.vhd", "-- old" ], 1, 2, 100.0, 3, 4, [ "parse" ])
            []
      in
      List.iter
        (fun f ->
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
              Out_channel.output_string oc old))
        arts;
      let again =
        Service.compile_cached ~cache:(Cache.create ~disk_dir:dir ())
          (fir_job ())
      in
      Alcotest.check origin "compiled cold, not reloaded" Service.Cold
        again.Service.r_origin;
      Alcotest.(check bool) "same VHDL" true
        (first.Service.r_vhdl = again.Service.r_vhdl);
      Alcotest.check area "same metrics" first.Service.r_area
        again.Service.r_area)

(* ---- batches ---- *)

let test_batch_isolates_failure () =
  let jobs =
    [ fir_job ();
      { Service.label = "broken"; source = bad_source; entry = "broken";
        options = Driver.default_options; luts = [] };
      { Service.label = "acc"; source = acc_source; entry = "acc";
        options = Driver.default_options; luts = [] } ]
  in
  let report = Service.run_batch ~num_domains:2 jobs in
  Alcotest.(check int) "three slots" 3 (Array.length report.Service.rp_results);
  (match report.Service.rp_results.(0) with
  | _, Ok s -> Alcotest.(check string) "fir ok" "fir" s.Service.r_entry
  | _, Error msg -> Alcotest.failf "fir failed: %s" msg);
  (match report.Service.rp_results.(1) with
  | _, Ok _ -> Alcotest.fail "broken kernel unexpectedly compiled"
  | _, Error msg ->
    Alcotest.(check bool) "parse error reported" true
      (String.length msg > 0
      && String.length msg >= 5
      && String.sub msg 0 5 = "parse"));
  (match report.Service.rp_results.(2) with
  | _, Ok s -> Alcotest.(check string) "acc ok" "acc" s.Service.r_entry
  | _, Error msg -> Alcotest.failf "acc failed: %s" msg);
  Alcotest.(check int) "one failure listed" 1
    (List.length (Service.failures report))

let test_parallel_matches_sequential () =
  let jobs = Service.table1_jobs () in
  let seq = Service.run_batch ~num_domains:1 jobs in
  let par = Service.run_batch ~num_domains:4 jobs in
  Array.iter2
    (fun (j1, r1) (_, r2) ->
      match r1, r2 with
      | Ok s1, Ok s2 ->
        Alcotest.(check bool)
          (j1.Service.label ^ " VHDL byte-identical across domain counts")
          true
          (s1.Service.r_vhdl = s2.Service.r_vhdl)
      | Error m, _ | _, Error m ->
        Alcotest.failf "%s failed: %s" j1.Service.label m)
    seq.Service.rp_results par.Service.rp_results

let test_warm_batch_faster_with_hits () =
  let cache = Cache.create () in
  let jobs = Service.table1_jobs () in
  let cold = Service.run_batch ~cache ~num_domains:1 jobs in
  let warm = Service.run_batch ~cache ~num_domains:1 jobs in
  let stats = Option.get warm.Service.rp_cache in
  Alcotest.(check bool) "warm run hit the cache" true
    (stats.Cache.hits >= List.length jobs);
  Alcotest.(check bool) "warm run is faster" true
    (warm.Service.rp_wall_s < cold.Service.rp_wall_s);
  List.iter
    (fun ((_ : Service.job), (s : Service.success)) ->
      Alcotest.check origin "every warm job came from memory"
        Service.Warm_memory s.Service.r_origin)
    (Service.successes warm)

let test_sweep_grid () =
  let jobs =
    Service.sweep_jobs ~source:fir_source ~entry:"fir"
      ~unroll_factors:[ 1 ] ~bus_widths:[ 1; 2; 4 ] ()
  in
  Alcotest.(check int) "grid size" 3 (List.length jobs);
  let cache = Cache.create () in
  let report = Service.run_batch ~cache ~num_domains:1 jobs in
  Alcotest.(check int) "no failures" 0
    (List.length (Service.failures report));
  match Array.to_list report.Service.rp_results with
  | (_, Ok first) :: rest ->
    Alcotest.check origin "first grid point is cold" Service.Cold
      first.Service.r_origin;
    List.iter
      (fun (_, r) ->
        match r with
        | Ok s ->
          Alcotest.check origin "bus-only variants reuse the front end"
            Service.Warm_stage s.Service.r_origin
        | Error m -> Alcotest.failf "sweep job failed: %s" m)
      rest
  | _ -> Alcotest.fail "unexpected sweep report shape"

(* Acceptance criterion: a back-end option sweep reuses every mid-end
   pass — the trace shows one cached span per mid-end pass. *)
let test_sweep_per_pass_cache_hits () =
  let cache = Cache.create () in
  let _ = Service.compile_cached ~cache (fir_job ()) in
  let trace = Trace.create () in
  let bus2 =
    fir_job ~label:"fir.b2"
      ~options:{ Driver.default_options with Driver.bus_elements = 2 } ()
  in
  let r = Service.compile_cached ~cache ~trace bus2 in
  Alcotest.check origin "bus sweep only re-runs the back end"
    Service.Warm_stage r.Service.r_origin;
  let spans = Trace.spans trace in
  let cached_names =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.Trace.sp_cat = "pass" && List.mem_assoc "cached" sp.Trace.sp_args
        then Some sp.Trace.sp_name
        else None)
      spans
  in
  let mid_names =
    List.map
      (fun (p : Roccc_core.Pass.pass) -> p.Roccc_core.Pass.name)
      (Roccc_core.Pass.executed Driver.default_options
         (Roccc_core.Pass.front_passes @ Roccc_core.Pass.kernel_passes))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "mid-end pass %s hit the cache" name)
        true (List.mem name cached_names))
    mid_names;
  (* back-end passes actually ran: live spans without the cached marker *)
  Alcotest.(check bool) "back end ran live" true
    (List.exists
       (fun (sp : Trace.span) ->
         sp.Trace.sp_cat = "pass"
         && sp.Trace.sp_name = "vhdl-generation"
         && not (List.mem_assoc "cached" sp.Trace.sp_args))
       spans)

(* A batch compile keeps only mid-end states and artifacts, and renders
   each job's files itself: serve's memory tier never evicts, so
   bus-width siblings must store nothing a front compile would keep for
   reuse (back-end states, rendered files). *)
let test_batch_siblings_store_only_mid_end () =
  let jobs =
    Service.sweep_jobs ~source:fir_source ~entry:"fir"
      ~unroll_factors:[ 1 ] ~bus_widths:[ 1; 2; 4 ] ()
  in
  let cache = Cache.create () in
  let report = Service.run_batch ~cache ~num_domains:1 jobs in
  let s = Cache.stats cache in
  Alcotest.(check (list (pair string int))) "stores, hits and misses"
    [ "stores", 11; "hits", 16; "misses", 22 ]
    [ "stores", s.Cache.stores; "hits", s.Cache.hits;
      "misses", s.Cache.misses ];
  List.iter
    (fun ((j : Service.job), s) ->
      let compiled =
        Driver.compile ~options:j.Service.options ~entry:"fir" fir_source
      in
      Alcotest.(check (list (pair string string)))
        (j.Service.label ^ ": VHDL equals Driver.compile")
        (Driver.files compiled) s.Service.r_vhdl)
    (Service.successes report)

(* ---- scheduler ---- *)

let test_scheduler_deterministic_slots () =
  let jobs = Array.init 20 (fun i -> i) in
  let results =
    Pool.parallel_map ~num_domains:4
      ~f:(fun ~tid x ->
        ignore tid;
        if x mod 5 = 3 then failwith (Printf.sprintf "boom %d" x) else x * x)
      jobs
  in
  Array.iteri
    (fun i r ->
      if i mod 5 = 3 then
        match r with
        | Error msg ->
          Alcotest.(check bool) "failure message kept" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.failf "slot %d should have failed" i
      else
        match r with
        | Ok v -> Alcotest.(check int) "slot value" (i * i) v
        | Error msg -> Alcotest.failf "slot %d failed: %s" i msg)
    results

let test_effective_workers () =
  let hw = Pool.recommended () in
  Alcotest.(check int) "clamped to the job count" 1
    (Pool.effective_workers ~num_domains:8 1);
  Alcotest.(check int) "clamped to the hardware parallelism" hw
    (Pool.effective_workers ~num_domains:(hw * 4) 64);
  Alcotest.(check int) "zero request means the default" (min hw 64)
    (Pool.effective_workers ~num_domains:0 64);
  Alcotest.(check int) "empty batch still gets one worker" 1
    (Pool.effective_workers ~num_domains:4 0)

let test_scheduler_chunk_edge_cases () =
  let jobs = Array.init 7 (fun i -> i) in
  let f ~tid x = ignore tid; x + 1 in
  (* chunk larger than the batch and chunk = 1 both cover every slot *)
  List.iter
    (fun chunk ->
      let results = Pool.parallel_map ~num_domains:4 ~chunk ~f jobs in
      Array.iteri
        (fun i r ->
          Alcotest.(check (result int string))
            (Printf.sprintf "chunk %d slot %d" chunk i)
            (Ok (i + 1)) r)
        results)
    [ 1; 3; 100 ];
  let empty = Pool.parallel_map ~num_domains:4 ~f (([||] : int array)) in
  Alcotest.(check int) "empty batch" 0 (Array.length empty)

(* Regression for the negative scaling the service bench used to show:
   requesting more domains than the machine has cores must not slow a
   CPU-bound batch down (the scheduler clamps to the hardware parallelism
   and spawns nothing it cannot use). *)
let test_scheduler_scaling_guard () =
  let work ~tid x =
    ignore tid;
    let acc = ref x in
    for i = 1 to 150_000 do
      acc := ((!acc * 1103515245) + 12345 + i) land 0x3FFFFFFF
    done;
    !acc
  in
  let jobs = Array.init 24 (fun i -> i) in
  let time d =
    let t0 = Unix.gettimeofday () in
    let r = Pool.parallel_map ~num_domains:d ~f:work jobs in
    r, Unix.gettimeofday () -. t0
  in
  (* warm up once so allocation noise lands outside the measurements *)
  let _ = time 1 in
  let r1, t1 = time 1 in
  let r4, t4 = time 4 in
  Alcotest.(check bool) "same results at 1 and 4 domains" true (r1 = r4);
  Alcotest.(check bool)
    (Printf.sprintf
       "4-domain wall (%.1f ms) within tolerance of 1-domain (%.1f ms)"
       (1e3 *. t4) (1e3 *. t1))
    true
    (t4 <= (t1 *. 1.5) +. 0.01)

let test_run_batch_reports_workers () =
  let report = Service.run_batch ~num_domains:4 [ fir_job () ] in
  Alcotest.(check int) "requested domains recorded" 4
    report.Service.rp_domains;
  Alcotest.(check int) "one job uses one worker" 1 report.Service.rp_workers

(* ---- tracing ---- *)

let test_trace_export () =
  let trace = Trace.create () in
  let cache = Cache.create () in
  let report =
    Service.run_batch ~cache ~trace ~num_domains:2 [ fir_job () ]
  in
  let spans = Trace.spans trace in
  Alcotest.(check bool) "pass spans recorded" true
    (List.exists
       (fun (sp : Trace.span) -> sp.Trace.sp_name = "datapath-build")
       spans);
  Alcotest.(check bool) "job span recorded" true
    (List.exists (fun (sp : Trace.span) -> sp.Trace.sp_cat = "job") spans);
  let json = Trace.to_chrome_json ~meta:(Service.trace_meta report) trace in
  Alcotest.(check bool) "chrome envelope" true
    (contains "\"traceEvents\"" json);
  Alcotest.(check bool) "meta carries wall time" true
    (contains "\"wall_s\"" json);
  Alcotest.(check bool) "meta carries cache hits" true
    (contains "\"cache_hits\"" json)

(* ---- instrumented driver ---- *)

let test_driver_instrument_hook () =
  let seen = ref [] in
  let c =
    Driver.compile
      ~instrument:(fun ps -> seen := ps.Driver.pass_name :: !seen)
      ~entry:"fir" fir_source
  in
  Alcotest.(check (list string)) "hook saw exactly the pass trace"
    c.Driver.pass_trace (List.rev !seen)

(* ---- typed VM error ---- *)

let test_vm_error_typed () =
  Alcotest.check_raises "division by zero is a typed error"
    (Roccc_util.Diag.Error
       { where = "vm"; pos = None; msg = "division by zero" })
    (fun () ->
      ignore
        (Instr.eval_op
           ~lut:(fun _ v -> v)
           ~lpr:(fun _ -> 0L)
           Instr.Div [ 1L; 0L ]));
  Alcotest.check_raises "arity mismatch is a typed error"
    (Roccc_util.Diag.Error
       { where = "vm";
         pos = None;
         msg = "arity mismatch for add: got 1 operand(s), expected 2" })
    (fun () ->
      ignore
        (Instr.eval_op
           ~lut:(fun _ v -> v)
           ~lpr:(fun _ -> 0L)
           Instr.Add [ 1L ]))

let test_interp_div_zero_is_driver_error () =
  let src =
    "void divk(int A[4], int B[4], int C[4]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 4; i++) {\n\
    \    C[i] = A[i] / B[i];\n\
    \  }\n\
     }\n"
  in
  let c = Driver.compile ~entry:"divk" src in
  let arrays =
    [ "A", [| 8L; 6L; 4L; 2L |]; "B", [| 2L; 1L; 0L; 1L |] ]
  in
  match Driver.interpret ~arrays c with
  | _ -> Alcotest.fail "interpreting a division by zero should not succeed"
  | exception Driver.Error msg ->
    Alcotest.(check bool) "user-facing message" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Resilience: fault injection, cache hardening, the serve protocol    *)
(* ------------------------------------------------------------------ *)

module Faults = Roccc_service.Faults
module Server = Roccc_service.Server
module Json = Roccc_service.Json
module Metrics = Roccc_service.Metrics

(* Every test that installs a fault plan must clear it, or the global
   plan leaks into unrelated tests. *)
let with_faults spec f =
  (match Faults.parse spec with
  | Ok plan -> Faults.install plan
  | Error msg -> Alcotest.fail ("bad fault spec: " ^ msg));
  Fun.protect ~finally:Faults.clear f

let test_faults_parse () =
  (match Faults.parse "cache_read:0.5,driver_pass" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let rejected spec =
    match Faults.parse spec with
    | Ok _ -> Alcotest.fail ("accepted bad spec " ^ spec)
    | Error _ -> ()
  in
  rejected "bogus_point";
  rejected "cache_read:0";
  rejected "cache_read:1.5";
  rejected "cache_read:nope";
  rejected "cache_read,cache_read:0.5";
  rejected ""

let test_faults_deterministic_accumulator () =
  (* rate 0.5 fires on exactly every second call; rate 1.0 on every
     call — and the sequence is identical across runs. *)
  let fired_pattern () =
    with_faults "scheduler_claim:0.5" (fun () ->
        List.init 8 (fun _ ->
            match Faults.trip "scheduler_claim" with
            | () -> false
            | exception Faults.Injected _ -> true))
  in
  let p1 = fired_pattern () in
  let p2 = fired_pattern () in
  Alcotest.(check (list bool)) "reproducible" p1 p2;
  Alcotest.(check int) "every second call" 4
    (List.length (List.filter Fun.id p1));
  with_faults "driver_pass" (fun () ->
      for _ = 1 to 3 do
        match Faults.trip "driver_pass" with
        | () -> Alcotest.fail "rate 1.0 must fire every call"
        | exception Faults.Injected point ->
          Alcotest.(check string) "point name" "driver_pass" point
      done;
      match Faults.counts () with
      | [ (_, calls, fired) ] ->
        Alcotest.(check (pair int int)) "counts" (3, 3) (calls, fired)
      | cs -> Alcotest.fail (Printf.sprintf "%d count rows" (List.length cs)))

let test_cache_sweeps_stranded_tmp () =
  let dir = fresh_tmp_dir "roccc_sweep" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* a write-temporary stranded by a dead process *)
      let stranded = Filename.concat dir "deadbeef.art.tmp.99999" in
      let oc = open_out stranded in
      output_string oc "torn";
      close_out oc;
      let keep = Filename.concat dir "cafe.art" in
      let oc = open_out keep in
      output_string oc "not a tmp";
      close_out oc;
      let cache = Cache.create ~disk_dir:dir () in
      Alcotest.(check bool) "tmp removed" false (Sys.file_exists stranded);
      Alcotest.(check bool) "real artifact kept" true (Sys.file_exists keep);
      Alcotest.(check int) "sweep counted" 1 (Cache.stats cache).Cache.tmp_swept)

let test_cache_write_fault_degrades () =
  let dir = fresh_tmp_dir "roccc_wfault" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* rate 1.0: all 3 attempts fail -> the store degrades (dropped on
         disk, kept in memory) instead of raising *)
      with_faults "cache_write" (fun () ->
          let cache = Cache.create ~disk_dir:dir () in
          let r = Service.compile_cached ~cache (fir_job ()) in
          Alcotest.check origin "compile still succeeds" Service.Cold
            r.Service.r_origin;
          let s = Cache.stats cache in
          Alcotest.(check bool) "write retried" true (s.Cache.retries >= 2);
          Alcotest.(check bool) "write degraded" true (s.Cache.io_errors >= 1);
          Alcotest.(check bool) "nothing persisted" true
            (Array.for_all
               (fun f -> not (Filename.check_suffix f ".art"))
               (Sys.readdir dir))))

let test_cache_read_fault_retries_through () =
  let dir = fresh_tmp_dir "roccc_rfault" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seed = Cache.create ~disk_dir:dir () in
      ignore (Service.compile_cached ~cache:seed (fir_job ()));
      (* rate 0.5 fires on every second trip; the first lookup passes
         (disk hit), the second fires and must be recovered by a retry
         rather than degraded to a miss *)
      with_faults "cache_read:0.5" (fun () ->
          let cache = Cache.create ~disk_dir:dir () in
          let r1 = Service.compile_cached ~cache (fir_job ()) in
          Alcotest.check origin "disk artifact found" Service.Warm_disk
            r1.Service.r_origin;
          let r2 = Service.compile_cached ~cache (fir_job ()) in
          Alcotest.check origin "artifact recovered through retries"
            Service.Warm_memory r2.Service.r_origin;
          let s = Cache.stats cache in
          Alcotest.(check bool) "retries counted" true (s.Cache.retries >= 1);
          Alcotest.(check int) "nothing degraded" 0 s.Cache.io_errors))

let test_flag_validators () =
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "positive int ok" true
    (ok (Server.check_positive_int ~flag:"--jobs" 4));
  Alcotest.(check bool) "zero rejected" false
    (ok (Server.check_positive_int ~flag:"--jobs" 0));
  Alcotest.(check bool) "negative rejected" false
    (ok (Server.check_positive_int ~flag:"--jobs" (-2)));
  Alcotest.(check bool) "positive float ok" true
    (ok (Server.check_positive_float ~flag:"--target-ns" 5.0));
  Alcotest.(check bool) "negative float rejected" false
    (ok (Server.check_positive_float ~flag:"--target-ns" (-1.0)));
  Alcotest.(check bool) "nan rejected" false
    (ok (Server.check_positive_float ~flag:"--target-ns" Float.nan));
  Alcotest.(check bool) "default limits valid" true
    (ok (Server.validate_limits Server.default_limits));
  Alcotest.(check bool) "bad queue depth rejected" false
    (ok
       (Server.validate_limits
          { Server.default_limits with Server.queue_depth = 0 }));
  Alcotest.(check bool) "bad deadline rejected" false
    (ok
       (Server.validate_limits
          { Server.default_limits with Server.deadline_ms = Some (-5.0) }));
  match Server.check_positive_int ~flag:"--jobs" 0 with
  | Error msg ->
    Alcotest.(check bool) "message names the flag" true
      (String.length msg > 6 && String.sub msg 0 6 = "--jobs")
  | Ok _ -> assert false

let test_check_jobs_auto () =
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "0 means auto and is accepted" true
    (ok (Server.check_jobs ~flag:"--jobs" 0));
  Alcotest.(check bool) "explicit count accepted" true
    (ok (Server.check_jobs ~flag:"--jobs" 4));
  (match Server.check_jobs ~flag:"--jobs" (-2) with
  | Ok _ -> Alcotest.fail "negative --jobs accepted"
  | Error msg ->
    Alcotest.(check bool) "message names the flag" true
      (String.length msg > 6 && String.sub msg 0 6 = "--jobs"));
  Alcotest.(check bool) "limits with workers 0 validate" true
    (ok
       (Server.validate_limits
          { Server.default_limits with Server.workers = 0 }));
  Alcotest.(check bool) "limits with negative workers rejected" false
    (ok
       (Server.validate_limits
          { Server.default_limits with Server.workers = -1 }))

(* ---- worker pool ---- *)

let test_pool_run_covers_tids () =
  let workers = 4 in
  let seen = Array.init workers (fun _ -> Atomic.make 0) in
  Pool.run ~workers (fun ~tid -> Atomic.incr seen.(tid));
  Array.iteri
    (fun i a ->
      Alcotest.(check int) (Printf.sprintf "tid %d ran once" i) 1
        (Atomic.get a))
    seen;
  (* workers = 1 stays on the calling domain: the scheduler's
     effective_workers semantics depend on it *)
  let self = Domain.self () in
  let inline = ref false in
  Pool.run ~workers:1 (fun ~tid ->
      Alcotest.(check int) "sole tid is 0" 0 tid;
      inline := Domain.self () = self);
  Alcotest.(check bool) "workers=1 runs on the caller" true !inline

let test_pool_spawn_join_tids () =
  let workers = 3 in
  let seen = Array.init (workers + 1) (fun _ -> Atomic.make 0) in
  let pool = Pool.spawn ~workers (fun ~tid -> Atomic.incr seen.(tid)) in
  Alcotest.(check int) "pool size" workers (Pool.size pool);
  Pool.join pool;
  Alcotest.(check int) "tid 0 reserved for the caller" 0
    (Atomic.get seen.(0));
  for i = 1 to workers do
    Alcotest.(check int) (Printf.sprintf "tid %d ran once" i) 1
      (Atomic.get seen.(i))
  done

let test_pool_exception_joins_all () =
  let finished = Array.init 4 (fun _ -> Atomic.make false) in
  match
    Pool.run ~workers:4 (fun ~tid ->
        if tid = 2 then failwith "worker 2 exploded";
        Atomic.set finished.(tid) true)
  with
  | () -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "worker failure surfaces" "worker 2 exploded" msg;
    (* fault isolation: the failure did not abandon the other workers *)
    List.iter
      (fun i ->
        Alcotest.(check bool) (Printf.sprintf "worker %d still joined" i) true
          (Atomic.get finished.(i)))
      [ 0; 1; 3 ]

(* ---- striped cache ---- *)

let hammer_key i =
  Fingerprint.seed ~source:(Printf.sprintf "hammer-src-%d" i) ~entry:"e"
    ~luts:[]

let hammer_artifact i =
  { Cache.art_entry = "e";
    art_vhdl = [ ("k.vhd", Printf.sprintf "-- artifact %d body" i) ];
    art_area =
      { Roccc_fpga.Area.luts = 2 * i;
        flip_flops = 0;
        rom_luts = 0;
        slices = i;
        operator_slices = i + 1;
        clock_mhz = 100.0;
        latency = i;
        latch_bits = 0;
        greedy_latch_bits = 0;
        outputs_per_cycle = 1;
        breakdown = [] };
    art_pass_trace = [ "pass" ] }

(* Mixed get/put traffic on overlapping keys from N domains: nothing is
   lost or torn, the hit+miss accounting is exact, and the surviving
   contents match a single-domain run byte for byte. *)
let hammer_run ~domains ~rounds ~nkeys =
  let cache = Cache.create () in
  let finds = Atomic.make 0 in
  Pool.run ~workers:domains (fun ~tid:_ ->
      for _r = 1 to rounds do
        for i = 0 to nkeys - 1 do
          Atomic.incr finds;
          match Cache.find cache (hammer_key i) with
          | Some (Cache.Artifact a, Cache.Memory) ->
            if a.Cache.art_vhdl <> (hammer_artifact i).Cache.art_vhdl then
              Alcotest.fail "torn or mixed-up artifact"
          | Some _ -> Alcotest.fail "unexpected value under artifact key"
          | None ->
            Cache.store cache (hammer_key i)
              (Cache.Artifact (hammer_artifact i))
        done
      done);
  let final =
    List.init nkeys (fun i ->
        match Cache.find cache (hammer_key i) with
        | Some (Cache.Artifact a, Cache.Memory) -> a.Cache.art_vhdl
        | _ -> Alcotest.fail (Printf.sprintf "artifact %d lost" i))
  in
  cache, Atomic.get finds, final

let test_cache_hammer_across_domains () =
  let rounds = 200 and nkeys = 16 in
  let cache, finds, final = hammer_run ~domains:4 ~rounds ~nkeys in
  let s = Cache.stats cache in
  (* the final-contents readback above also counted nkeys hits *)
  Alcotest.(check int) "every lookup counted exactly once"
    (finds + nkeys)
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check int) "no disk tier involved" 0 s.Cache.disk_hits;
  Alcotest.(check bool) "stores bounded by lookups" true
    (s.Cache.stores >= nkeys && s.Cache.stores <= s.Cache.misses);
  let _, _, solo = hammer_run ~domains:1 ~rounds ~nkeys in
  Alcotest.(check bool) "contents byte-identical vs single domain" true
    (final = solo)

let test_json_roundtrip () =
  let cases =
    [ {|{"a":1,"b":[true,false,null],"c":"x\"y\\z","d":-2.5}|};
      {|[]|}; {|{}|}; {|"A\n"|}; {|123|}; {|-0.125|};
      "\"\\u0041\""; {|1.5e3|}; {|0.5|} ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error msg -> Alcotest.fail (s ^ ": " ^ msg)
      | Ok v -> (
        (* printing then reparsing must be a fixpoint *)
        let printed = Json.to_string v in
        match Json.parse printed with
        | Ok v2 ->
          Alcotest.(check string) ("fixpoint of " ^ s) printed
            (Json.to_string v2)
        | Error msg -> Alcotest.fail (printed ^ ": " ^ msg)))
    cases;
  (* a valid \u escape decodes (and survives a print/reparse) *)
  (match Json.parse "\"\\u0041\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "\\u0041 decodes" "A" s
  | Ok _ -> Alcotest.fail "\\u0041 parsed to a non-string"
  | Error msg -> Alcotest.fail ("\\u0041 rejected: " ^ msg));
  let has_offset msg =
    (* parse errors carry a byte offset: "... at offset N" *)
    let marker = "at offset " in
    let ml = String.length marker and n = String.length msg in
    let rec at i =
      i + ml <= n
      && (String.equal (String.sub msg i ml) marker || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
      | Error msg ->
        Alcotest.(check bool)
          ("positioned error for " ^ s)
          true (has_offset msg))
    [ "{"; "[1,]"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2"; "";
      "1."; "-"; ".5"; "1e"; "1.e3"; {|"\u0_41"|}; {|"\u00g1"|} ]

(* Run a scripted serve session in-process: requests go down one pipe,
   responses come back up another, and the returned snapshot is the
   server's own account of what happened. *)
let run_serve_session ?(limits = Server.default_limits) ?cache ?trace lines =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r in
  let oc = Unix.out_channel_of_descr resp_w in
  let srv = Server.create ?cache ?trace ~limits () in
  let server_domain =
    Domain.spawn (fun () ->
        let snap = Server.serve srv ic oc in
        close_out oc;
        (* responses EOF *)
        snap)
  in
  let wc = Unix.out_channel_of_descr req_w in
  List.iter
    (fun l ->
      output_string wc l;
      output_char wc '\n')
    lines;
  close_out wc;
  let rc = Unix.in_channel_of_descr resp_r in
  let rec read_all acc =
    match input_line rc with
    | line -> read_all (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read_all [] in
  let snapshot = Domain.join server_domain in
  close_in rc;
  close_in ic;
  responses, snapshot, srv

let parsed_responses lines =
  List.map
    (fun l ->
      match Json.parse l with
      | Ok v -> v
      | Error msg -> Alcotest.fail ("unparseable response " ^ l ^ ": " ^ msg))
    lines

let status_of j =
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail ("response without status: " ^ Json.to_string j)

let id_of j = Option.value (Json.member "id" j) ~default:Json.Null

let find_by_id id resps =
  match List.find_opt (fun j -> id_of j = Json.Str id) resps with
  | Some j -> j
  | None -> Alcotest.fail ("no response with id " ^ id)

let tiny_kernel c =
  Printf.sprintf
    "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { \
     B[i] = A[i] * %d + 1; } }"
    c

let compile_request ?(extra = "") ~id c =
  Printf.sprintf {|{"id":%S,"source":%S,"entry":"k"%s}|} id (tiny_kernel c)
    extra

let test_serve_protocol_roundtrip () =
  let lines =
    [ compile_request ~id:"c1" 3;
      {|{"id":"h1","type":"health","drain":true}|};
      {|{"id":"c2","source":"void k(int A[4]) { A[0] = }","entry":"k"}|};
      "{not json";
      {|{"id":"u1","type":"frobnicate"}|};
      compile_request ~id:"c3" 3 (* same source: cache space, still ok *) ]
  in
  let responses, snapshot, _ = run_serve_session lines in
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length responses);
  let resps = parsed_responses responses in
  let c1 = find_by_id "c1" resps in
  Alcotest.(check string) "compile ok" "ok" (status_of c1);
  Alcotest.(check (option int)) "slices reported" (Some 67)
    (Option.bind (Json.member "slices" c1) Json.to_int_opt);
  let h1 = find_by_id "h1" resps in
  Alcotest.(check string) "health ok" "ok" (status_of h1);
  (* drain:true means the health snapshot already saw c1 finish *)
  let health = Option.get (Json.member "health" h1) in
  let requests = Option.get (Json.member "requests" health) in
  Alcotest.(check (option int)) "health saw c1 complete" (Some 1)
    (Option.bind (Json.member "ok" requests) Json.to_int_opt);
  let c2 = find_by_id "c2" resps in
  Alcotest.(check string) "compile error is structured" "error"
    (status_of c2);
  Alcotest.(check (option string)) "compile error kind" (Some "compile")
    (Option.bind (Json.member "kind" c2) Json.to_string_opt);
  let malformed =
    List.find_opt
      (fun j ->
        id_of j = Json.Null && status_of j = "error"
        && Option.bind (Json.member "kind" j) Json.to_string_opt
           = Some "bad_request")
      resps
  in
  Alcotest.(check bool) "malformed line answered" true (malformed <> None);
  let u1 = find_by_id "u1" resps in
  Alcotest.(check (option string)) "unknown type rejected"
    (Some "bad_request")
    (Option.bind (Json.member "kind" u1) Json.to_string_opt);
  Alcotest.(check string) "repeat compile ok" "ok"
    (status_of (find_by_id "c3" resps));
  Alcotest.(check int) "snapshot received" (List.length lines)
    snapshot.Metrics.s_received;
  Alcotest.(check int) "snapshot ok" 2 snapshot.Metrics.s_ok;
  Alcotest.(check int) "snapshot bad_request" 2 snapshot.Metrics.s_bad_request;
  (* the answers do not depend on the worker count once timings and cache
     origins are stripped; the health answer reports the server's own
     state, so it is left out *)
  let canonical workers =
    let responses, _, _ =
      run_serve_session
        ~limits:{ Server.default_limits with Server.workers }
        lines
    in
    parsed_responses responses
    |> List.filter (fun j -> id_of j <> Json.Str "h1")
    |> List.map (function
         | Json.Obj fields ->
           Json.to_string
             (Json.Obj
                (List.filter
                   (fun (k, _) -> k <> "elapsed_ms" && k <> "origin")
                   fields))
         | j -> Json.to_string j)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "same answers at 1 and 4 workers"
    (canonical 1) (canonical 4)

(* [disable_passes] is validated while parsing the request: a bad list is
   a bad_request that echoes the request id, as is an unknown option key;
   a good list compiles. *)
let test_serve_disable_passes () =
  let req id options =
    compile_request ~id ~extra:(",\"options\":" ^ options) 3
  in
  let lines =
    [ req "unknown" {|{"disable_passes":["nosuch"]}|};
      req "required" {|{"disable_passes":["parse"]}|};
      req "nonstring" {|{"disable_passes":["vm-optimize",1]}|};
      req "removed" {|{"fuse_loops":false}|};
      req "good" {|{"disable_passes":["vm-optimize","retiming"]}|} ]
  in
  let responses, snapshot, _ = run_serve_session lines in
  let resps = parsed_responses responses in
  let message j =
    Option.value ~default:""
      (Option.bind (Json.member "message" j) Json.to_string_opt)
  in
  List.iter
    (fun (id, needle) ->
      let j = find_by_id id resps in
      Alcotest.(check (option string)) (id ^ " is a bad_request")
        (Some "bad_request")
        (Option.bind (Json.member "kind" j) Json.to_string_opt);
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" id (message j) needle)
        true (contains needle (message j)))
    [ "unknown", "nosuch"; "required", "parse"; "nonstring", "pass names";
      "removed", "unknown option" ];
  Alcotest.(check string) "a valid list compiles" "ok"
    (status_of (find_by_id "good" resps));
  Alcotest.(check int) "bad requests counted" 4 snapshot.Metrics.s_bad_request

let test_serve_oversized_request () =
  let limits = { Server.default_limits with Server.max_request_bytes = 64 } in
  let big = compile_request ~id:"big" 7 in
  Alcotest.(check bool) "request really oversized" true
    (String.length big > 64);
  let responses, snapshot, _ =
    run_serve_session ~limits [ big; {|{"id":"h","type":"health"}|} ]
  in
  let resps = parsed_responses responses in
  (match resps with
  | first :: _ ->
    Alcotest.(check string) "oversized rejected" "error" (status_of first);
    Alcotest.(check (option string)) "as bad_request" (Some "bad_request")
      (Option.bind (Json.member "kind" first) Json.to_string_opt)
  | [] -> Alcotest.fail "no responses");
  Alcotest.(check int) "both answered" 2 (List.length resps);
  Alcotest.(check int) "counted" 1 snapshot.Metrics.s_bad_request

let test_serve_deadline_exceeded () =
  (* a deadline far below compile time must come back structured, not
     hang or crash; unique sources defeat the cache *)
  let lines =
    List.init 4 (fun i ->
        compile_request
          ~id:(Printf.sprintf "d%d" i)
          ~extra:{|,"deadline_ms":0.0001|} (100 + i))
  in
  let responses, snapshot, _ = run_serve_session lines in
  let resps = parsed_responses responses in
  Alcotest.(check int) "all answered" 4 (List.length resps);
  List.iter
    (fun j ->
      Alcotest.(check string) "deadline status" "deadline_exceeded"
        (status_of j))
    resps;
  Alcotest.(check int) "snapshot deadline count" 4 snapshot.Metrics.s_deadline

let test_serve_sheds_when_overloaded () =
  let limits =
    { Server.default_limits with Server.workers = 1; queue_depth = 1 }
  in
  (* distinct sources so no request is a fast cache hit; admission far
     outpaces one worker, so the depth-1 queue must shed *)
  let n = 16 in
  let lines =
    List.init n (fun i -> compile_request ~id:(Printf.sprintf "s%d" i) i)
  in
  let responses, snapshot, _ = run_serve_session ~limits lines in
  let resps = parsed_responses responses in
  Alcotest.(check int) "every request answered" n (List.length resps);
  List.iter
    (fun j ->
      match status_of j with
      | "ok" | "overloaded" -> ()
      | s -> Alcotest.fail ("unexpected status " ^ s))
    resps;
  Alcotest.(check bool) "at least one shed" true (snapshot.Metrics.s_shed >= 1);
  Alcotest.(check int) "ok + shed = received" snapshot.Metrics.s_received
    (snapshot.Metrics.s_ok + snapshot.Metrics.s_shed)

let test_serve_fault_soak () =
  (* 64 mixed requests under fault injection at every point: every
     request gets a structured response, nothing crashes or hangs, and
     the final drained health snapshot is self-consistent. *)
  let dir = fresh_tmp_dir "roccc_soak" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_faults
        "cache_read:0.5,cache_write:0.5,scheduler_claim:0.2,driver_pass:0.02"
        (fun () ->
          let lines =
            List.init 63 (fun i ->
                match i mod 8 with
                | 6 ->
                  Printf.sprintf
                    {|{"id":"bad%d","source":"void k(int A[4]) { A[0] = }","entry":"k"}|}
                    i
                | 7 when i mod 16 = 7 -> "{malformed"
                | 7 ->
                  compile_request
                    ~id:(Printf.sprintf "dl%d" i)
                    ~extra:{|,"deadline_ms":0.0001|} (1000 + i)
                | _ -> compile_request ~id:(Printf.sprintf "q%d" i) (i mod 5))
            @ [ {|{"id":"final","type":"health","drain":true}|} ]
          in
          let limits = { Server.default_limits with Server.workers = 2 } in
          let cache = Cache.create ~disk_dir:dir () in
          let responses, snapshot, _ =
            run_serve_session ~limits ~cache lines
          in
          let resps = parsed_responses responses in
          Alcotest.(check int) "64 structured responses" 64
            (List.length resps);
          List.iter
            (fun j ->
              match status_of j with
              | "ok" | "error" | "overloaded" | "deadline_exceeded" -> ()
              | s -> Alcotest.fail ("unexpected status " ^ s))
            resps;
          (* errors must be typed *)
          List.iter
            (fun j ->
              if status_of j = "error" then
                match
                  Option.bind (Json.member "kind" j) Json.to_string_opt
                with
                | Some ("bad_request" | "compile" | "injected_fault") -> ()
                | Some k -> Alcotest.fail ("unexpected error kind " ^ k)
                | None -> Alcotest.fail "untyped error response")
            resps;
          (* the snapshot partitions every received request *)
          Alcotest.(check int) "received = all lines" 64
            snapshot.Metrics.s_received;
          Alcotest.(check int) "outcomes partition received"
            snapshot.Metrics.s_received
            (snapshot.Metrics.s_ok + snapshot.Metrics.s_failed
            + snapshot.Metrics.s_shed + snapshot.Metrics.s_deadline
            + snapshot.Metrics.s_bad_request + snapshot.Metrics.s_health);
          Alcotest.(check bool) "some requests succeeded" true
            (snapshot.Metrics.s_ok > 0);
          (* every named fault point was exercised and fired *)
          let counts = Faults.counts () in
          List.iter
            (fun point ->
              match
                List.find_opt (fun (p, _, _) -> p = point) counts
              with
              | Some (_, calls, fired) ->
                Alcotest.(check bool) (point ^ " called") true (calls > 0);
                Alcotest.(check bool) (point ^ " fired") true (fired > 0)
              | None -> Alcotest.fail ("no counts for point " ^ point))
            Faults.known_points;
          (* the drained final health response agrees with the snapshot *)
          let final = find_by_id "final" resps in
          let health = Option.get (Json.member "health" final) in
          let requests = Option.get (Json.member "requests" health) in
          Alcotest.(check (option int)) "health ok total"
            (Some snapshot.Metrics.s_ok)
            (Option.bind (Json.member "ok" requests) Json.to_int_opt)))

let test_health_reports_workers_and_cache () =
  let limits = { Server.default_limits with Server.workers = 2 } in
  let cache = Cache.create () in
  let lines =
    [ compile_request ~id:"c1" 3; {|{"id":"h1","type":"health"}|} ]
  in
  let resps, _, _ = run_serve_session ~limits ~cache lines in
  let resps = parsed_responses resps in
  let h = find_by_id "h1" resps in
  let health = Option.get (Json.member "health" h) in
  let workers = Option.get (Json.member "workers" health) in
  Alcotest.(check (option int)) "configured workers" (Some 2)
    (Option.bind (Json.member "configured" workers) Json.to_int_opt);
  Alcotest.(check (option int)) "effective workers" (Some 2)
    (Option.bind (Json.member "effective" workers) Json.to_int_opt);
  (match Json.member "requests" workers with
  | Some (Json.Arr l) ->
    Alcotest.(check int) "a request slot per worker plus admission" 3
      (List.length l)
  | _ -> Alcotest.fail "workers.requests missing");
  let cache_j = Option.get (Json.member "cache" health) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("cache." ^ key ^ " reported") true
        (Option.bind (Json.member key cache_j) Json.to_int_opt <> None))
    [ "hits"; "misses"; "stores"; "contended"; "flights"; "coalesced" ];
  Alcotest.(check bool) "one table: no per-shard breakdown" true
    (Json.member "shards" cache_j = None)

let test_pass_cancellation_hook () =
  (* the cooperative cancel hook fires at a pass boundary, and an
     un-cancelled run is unaffected *)
  let polls = ref 0 in
  let cancelling =
    { (Pass.default_config ()) with
      Pass.cancel =
        Some
          (fun () ->
            incr polls;
            if !polls > 3 then Some "test says stop" else None) }
  in
  (match Driver.compile ~config:cancelling ~entry:"fir" fir_source with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Pass.Cancelled reason ->
    Alcotest.(check string) "reason" "test says stop" reason);
  let benign =
    { (Pass.default_config ()) with Pass.cancel = Some (fun () -> None) }
  in
  match Driver.compile ~config:benign ~entry:"fir" fir_source with
  | _ -> ()
  | exception _ -> Alcotest.fail "benign cancel hook broke compilation"

(* ------------------------------------------------------------------ *)
(* Single-flight deduplication                                         *)
(* ------------------------------------------------------------------ *)

let test_single_flight_dedup () =
  (* K concurrent identical compiles must execute the mid-end exactly
     once: one leader runs the passes while every follower blocks on the
     flight and shares the artifact. Verified three ways: the instrument
     hook counts executed passes, Cache.stats counts flights, and the
     trace carries one zero-duration "coalesced" span per follower. *)
  let k = 6 in
  let job =
    { Service.label = "flight";
      source = tiny_kernel 11;
      entry = "k";
      options = Driver.default_options;
      luts = [] }
  in
  (* baseline: executed-pass count of one cold compile *)
  let baseline = ref 0 in
  let base_cfg =
    { (Pass.default_config ()) with
      Pass.instrument = Some (fun _ -> incr baseline) }
  in
  ignore (Service.compile_cached ~cache:(Cache.create ()) ~config:base_cfg job);
  Alcotest.(check bool) "baseline executes passes" true (!baseline > 0);
  let cache = Cache.create () in
  let trace = Trace.create () in
  let executed = Atomic.make 0 in
  let gated = Atomic.make false in
  (* the leader's first pass blocks until every follower has registered
     as coalesced, so the "all concurrent" interleaving is forced, not
     hoped for *)
  let gate () =
    if Atomic.compare_and_set gated false true then begin
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (Cache.stats cache).Cache.coalesced < k - 1
        && Unix.gettimeofday () < deadline
      do
        Domain.cpu_relax ()
      done
    end
  in
  let config =
    { (Pass.default_config ()) with
      Pass.instrument =
        Some
          (fun _ ->
            gate ();
            Atomic.incr executed) }
  in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let domains =
    List.init k (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Service.compile_cached ~cache ~config ~trace job))
  in
  while Atomic.get ready < k do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let results = List.map Domain.join domains in
  Alcotest.(check int) "mid-end executed exactly once" !baseline
    (Atomic.get executed);
  let st = Cache.stats cache in
  Alcotest.(check int) "one flight" 1 st.Cache.flights;
  Alcotest.(check int) "every follower coalesced" (k - 1) st.Cache.coalesced;
  let origins = List.map (fun r -> r.Service.r_origin) results in
  Alcotest.(check int) "one cold leader" 1
    (List.length (List.filter (( = ) Service.Cold) origins));
  Alcotest.(check int) "followers coalesced" (k - 1)
    (List.length (List.filter (( = ) Service.Coalesced) origins));
  (* every result shares the leader's bytes *)
  let vhdls = List.map (fun r -> r.Service.r_vhdl) results in
  List.iter
    (fun v -> Alcotest.(check bool) "byte-identical artifact" true
        (v = List.hd vhdls))
    vhdls;
  let coalesced_spans =
    List.filter
      (fun (sp : Trace.span) -> sp.Trace.sp_name = "coalesced")
      (Trace.spans trace)
  in
  Alcotest.(check int) "one coalesced span per follower" (k - 1)
    (List.length coalesced_spans);
  List.iter
    (fun (sp : Trace.span) ->
      Alcotest.(check (float 0.0)) "zero duration" 0.0 sp.Trace.sp_dur_s)
    coalesced_spans

(* Two costing runs of fir that differ only in bus width start together
   on one cache: they share every state up to the retimed one. The first
   to reach [pipelining] is held there until both have passed
   [bit-width-inference], so the other reaches the retimed state while
   the leader is computing it: it must wait on the leader's flight, not
   run [pipelining] and [retiming] a second time. With [fail], the held
   leader raises instead; its flight must still end, and the follower
   computes the state itself. *)
let costing_race ~fail =
  let cache = Cache.create () in
  let trace = Trace.create () in
  let runs = Hashtbl.create 8 and runs_lock = Mutex.create () in
  let held = Atomic.make false in
  let passed_bit_widths () =
    List.length
      (List.filter
         (fun (sp : Trace.span) -> sp.Trace.sp_name = "bit-width-inference")
         (Trace.spans trace))
  in
  let hold () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while passed_bit_widths () < 2 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Unix.sleepf 0.05
  in
  let config =
    { (Pass.default_config ()) with
      Pass.instrument =
        Some
          (fun (ps : Driver.pass_stats) ->
            let name = ps.Driver.pass_name in
            Mutex.protect runs_lock (fun () ->
                Hashtbl.replace runs name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt runs name)));
            if name = "pipelining" && Atomic.compare_and_set held false true
            then begin
              hold ();
              if fail then failwith "leader dies inside pipelining"
            end) }
  in
  let job bus =
    fir_job ~label:(Printf.sprintf "fir.b%d" bus)
      ~options:{ Driver.default_options with Driver.bus_elements = bus } ()
  in
  let go = Atomic.make false in
  let domains =
    List.map
      (fun bus ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match Service.measure_cached ~cache ~config ~trace (job bus) with
            | m -> Ok m
            | exception e -> Error (Printexc.to_string e)))
      [ 1; 2 ]
  in
  Atomic.set go true;
  let results = List.map Domain.join domains in
  let count name = Option.value ~default:0 (Hashtbl.find_opt runs name) in
  results, count, cache

let test_state_flight_dedup () =
  let results, count, cache = costing_race ~fail:false in
  Alcotest.(check int) "pipelining runs once" 1 (count "pipelining");
  Alcotest.(check int) "retiming runs once" 1 (count "retiming");
  Alcotest.(check int) "bit-width inference runs once" 1
    (count "bit-width-inference");
  Alcotest.(check int) "area estimation runs per bus width" 2
    (count "area-estimation");
  Alcotest.(check int) "state flights are not counted" 0
    (Cache.stats cache).Cache.flights;
  List.iter2
    (fun bus r ->
      match r with
      | Ok m ->
        let plain =
          Service.measure_cached
            { (fir_job ()) with
              Service.options =
                { Driver.default_options with Driver.bus_elements = bus } }
        in
        Alcotest.check area "metrics equal an uncached run" plain m
      | Error msg -> Alcotest.fail msg)
    [ 1; 2 ] results

let test_state_flight_failing_leader () =
  let results, count, _ = costing_race ~fail:true in
  let failed = List.filter Result.is_error results in
  Alcotest.(check int) "the held leader fails" 1 (List.length failed);
  Alcotest.(check int) "the follower succeeds" 1
    (List.length (List.filter Result.is_ok results));
  Alcotest.(check int) "the follower ran pipelining itself" 2
    (count "pipelining")

(* ------------------------------------------------------------------ *)
(* Multi-process-safe tmp sweeping                                     *)
(* ------------------------------------------------------------------ *)

let test_tmp_sweep_respects_live_pids () =
  let dir = fresh_tmp_dir "roccc_sweep" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let touch ?(age_s = 0.0) name =
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc "partial artifact";
        close_out oc;
        if age_s > 0.0 then begin
          let t = Unix.gettimeofday () -. age_s in
          Unix.utimes path t t
        end;
        path
      in
      let dead_fresh = touch "a.art.tmp.111" in
      let live_fresh = touch "b.art.tmp.222" in
      let live_old = touch ~age_s:3600.0 "c.art.tmp.222" in
      let junk_fresh = touch "d.art.tmp.notapid" in
      let junk_old = touch ~age_s:3600.0 "e.art.tmp.notapid" in
      let artifact = touch "f.art" in
      (* pid 222 is "alive", everything else is dead *)
      let removed =
        Cache.sweep_stale_tmp ~max_age_s:600.0
          ~pid_alive:(fun pid -> pid = 222)
          dir
      in
      (* removed: dead_fresh (dead pid), live_old (over age), junk_old
         (unparseable pid falls back to the age rule) *)
      Alcotest.(check int) "three stale files removed" 3 removed;
      Alcotest.(check bool) "dead pid swept even when fresh" false
        (Sys.file_exists dead_fresh);
      Alcotest.(check bool) "live sibling's in-flight write kept" true
        (Sys.file_exists live_fresh);
      Alcotest.(check bool) "live but ancient write swept" false
        (Sys.file_exists live_old);
      Alcotest.(check bool) "unparseable fresh tmp kept" true
        (Sys.file_exists junk_fresh);
      Alcotest.(check bool) "unparseable old tmp swept" false
        (Sys.file_exists junk_old);
      Alcotest.(check bool) "finished artifacts untouched" true
        (Sys.file_exists artifact))

(* ------------------------------------------------------------------ *)
(* Concurrent socket connections                                       *)
(* ------------------------------------------------------------------ *)

let with_serve_socket ?(limits = Server.default_limits) ?cache f =
  let dir = fresh_tmp_dir "roccc_sock" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "sv.sock" in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let srv = Server.create ?cache ~limits () in
      let server =
        Domain.spawn (fun () -> Server.serve_socket ~poll_interval_s:0.01 srv sock)
      in
      let out = f path srv in
      Server.request_stop srv;
      let snapshot = Domain.join server in
      (try Unix.close sock with Unix.Unix_error _ -> ());
      out, snapshot)

let connect_client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd

let rpc oc ic line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let test_serve_socket_concurrent_clients () =
  let limits = { Server.default_limits with Server.workers = 2 } in
  let reqs_per_client = 4 in
  let (by_client, shutdown_resp), snapshot =
    with_serve_socket ~limits (fun path _srv ->
        (* two clients compile the same sources concurrently over their
           own connections, each in lock-step (send, await reply) so the
           two request streams interleave on the shared queue *)
        let client tag =
          let fd, ic, oc = connect_client path in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              List.init reqs_per_client (fun i ->
                  let id = Printf.sprintf "%s%d" tag i in
                  let line =
                    Printf.sprintf
                      {|{"id":%S,"source":%S,"entry":"k","return_vhdl":true}|}
                      id (tiny_kernel i)
                  in
                  rpc oc ic line))
        in
        let a = Domain.spawn (fun () -> client "a") in
        let b = Domain.spawn (fun () -> client "b") in
        let a_resps = Domain.join a in
        let b_resps = Domain.join b in
        (* a third connection shuts the server down through the protocol *)
        let fd, ic, oc = connect_client path in
        let shutdown = rpc oc ic {|{"id":"s","type":"shutdown"}|} in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        [ "a", a_resps; "b", b_resps ], shutdown)
  in
  let parsed =
    List.map (fun (tag, lines) -> tag, parsed_responses lines) by_client
  in
  (* responses routed to the connection that asked, in its own order *)
  List.iter
    (fun (tag, resps) ->
      List.iteri
        (fun i j ->
          Alcotest.(check bool)
            (Printf.sprintf "%s%d routed" tag i)
            true
            (id_of j = Json.Str (Printf.sprintf "%s%d" tag i));
          Alcotest.(check string) "ok" "ok" (status_of j))
        resps)
    parsed;
  (* the two clients compiled identical sources: the returned VHDL must
     be byte-identical request-for-request across connections *)
  let vhdl tag i =
    let resps = List.assoc tag parsed in
    match Json.member "vhdl" (List.nth resps i) with
    | Some v -> Json.to_string v
    | None -> Alcotest.fail "response without vhdl"
  in
  for i = 0 to reqs_per_client - 1 do
    Alcotest.(check string) "byte-identical across connections" (vhdl "a" i)
      (vhdl "b" i)
  done;
  (match Json.parse shutdown_resp with
  | Ok j -> Alcotest.(check string) "shutdown acknowledged" "ok" (status_of j)
  | Error msg -> Alcotest.fail ("bad shutdown response: " ^ msg));
  Alcotest.(check int) "three connections accepted" 3 snapshot.Metrics.s_conns;
  Alcotest.(check int) "every compile answered ok" (2 * reqs_per_client)
    snapshot.Metrics.s_ok

let test_serve_socket_eof_isolated () =
  (* EOF on one connection must not stall another: client A connects,
     works, disconnects; client B (opened before A's EOF) keeps getting
     answers afterwards. *)
  let (before_eof, after_eof), _snapshot =
    with_serve_socket (fun path _srv ->
        let fd_b, ic_b, oc_b = connect_client path in
        let fd_a, ic_a, oc_a = connect_client path in
        let r_a = rpc oc_a ic_a (compile_request ~id:"a0" 1) in
        let before = rpc oc_b ic_b (compile_request ~id:"b0" 2) in
        ignore r_a;
        (try Unix.close fd_a with Unix.Unix_error _ -> ());
        (* B still lives after A's EOF *)
        let after = rpc oc_b ic_b (compile_request ~id:"b1" 3) in
        (try Unix.close fd_b with Unix.Unix_error _ -> ());
        before, after)
  in
  List.iter
    (fun (line, id) ->
      match Json.parse line with
      | Ok j ->
        Alcotest.(check bool) (id ^ " routed") true (id_of j = Json.Str id);
        Alcotest.(check string) (id ^ " ok") "ok" (status_of j)
      | Error msg -> Alcotest.fail ("bad response: " ^ msg))
    [ before_eof, "b0"; after_eof, "b1" ]

let test_serve_socket_refuses_past_domain_limit () =
  (* Every accepted connection gets its own reader domain and the runtime
     caps live domains, so 140 simultaneous connections cannot all be
     read. The ones left over must get one "overloaded" line each, and the
     server must keep serving. A refused socket may already be closed
     when the client writes to it, so SIGPIPE is ignored here and the
     write's EPIPE is ignored: the answer is already waiting to be read. *)
  let n = 140 in
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
    (fun () ->
      let limits = { Server.default_limits with Server.workers = 2 } in
      let ask (_, ic, oc) =
        (try
           output_string oc {|{"id":"h","type":"health"}|};
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ());
        match input_line ic with
        | line -> Json.parse line
        | exception End_of_file -> Error "connection closed without an answer"
        | exception Sys_error msg -> Error ("no answer: " ^ msg)
      in
      let (statuses, later), snapshot =
        with_serve_socket ~limits (fun path _srv ->
            let clients =
              List.init n (fun _ ->
                  let ((fd, _, _) as c) = connect_client path in
                  (* a connection nobody reads fails the test, not hangs it *)
                  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
                  c)
            in
            let statuses =
              List.map
                (fun c ->
                  match ask c with
                  | Ok j when status_of j = "ok" ->
                    Alcotest.(check bool) "ok answer carries health" true
                      (Json.member "health" j <> None);
                    "ok"
                  | Ok j when status_of j = "overloaded" ->
                    Alcotest.(check bool) "refusal has a null id" true
                      (id_of j = Json.Null);
                    "overloaded"
                  | Ok j -> Alcotest.fail ("unexpected answer " ^ Json.to_string j)
                  | Error msg -> Alcotest.fail msg)
                clients
            in
            List.iter
              (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
              clients;
            (* the closed connections' readers exit and free their
               domains; a new connection is then served again. Until
               they have, a retry may itself be refused: count those. *)
            let rec later ~refused tries =
              let ((fd, _, _) as c) = connect_client path in
              let answer = ask c in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              match answer with
              | Ok j when status_of j = "ok" -> "ok", refused
              | Ok j when status_of j = "overloaded" && tries > 0 ->
                Unix.sleepf 0.02;
                later ~refused:(refused + 1) (tries - 1)
              | Ok j -> status_of j, refused
              | Error msg -> msg, refused
            in
            statuses, later ~refused:0 250)
      in
      let count s = List.length (List.filter (String.equal s) statuses) in
      Alcotest.(check int) "every connection answered" n
        (count "ok" + count "overloaded");
      Alcotest.(check bool) "some connections were refused" true
        (count "overloaded" > 0);
      Alcotest.(check bool) "most connections were served" true
        (count "ok" > n / 2);
      let later_status, later_refused = later in
      Alcotest.(check string) "a later connection is served" "ok" later_status;
      Alcotest.(check int) "every refusal counted"
        (count "overloaded" + later_refused)
        snapshot.Metrics.s_refused)

(* The Table 1 jobs compile at each kernel's tuned options, so
   `batch --table1` refuses the option flags it would otherwise drop (it
   used to compile the same nine designs whatever they said). *)
let test_table1_rejects_option_flags () =
  let run args =
    let err = Filename.temp_file "roccc_table1" ".err" in
    let code =
      Sys.command
        (Printf.sprintf
           "../bin/roccc.exe batch --table1 --jobs 1 %s > /dev/null 2> %s" args
           (Filename.quote err))
    in
    let ic = open_in_bin err in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove err;
    code, text
  in
  List.iter
    (fun (flag, value) ->
      let code, err = run (flag ^ " " ^ value) in
      Alcotest.(check int) (flag ^ " exits 2") 2 code;
      Alcotest.(check bool) (flag ^ " is named") true (contains flag err))
    [ "--bus", "4"; "--target-ns", "3"; "--unroll-inner", "2";
      "--stage-budget", "1"; "--decomp", "addtree" ];
  let code, _ = run "--disable-pass vm-optimize" in
  Alcotest.(check int) "--disable-pass still applies" 0 code

(* `batch` over a directory turns an unparseable file into one failed
   job, printed with its parse error, and still compiles the others. *)
let test_batch_reports_unparseable_file () =
  let dir = Filename.temp_file "roccc_batch" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name text =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "bad.c" "void k(int A[8]) { A[0] = ; }\n";
  write "good.c" fir_source;
  let out = Filename.temp_file "roccc_batch" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/roccc.exe batch --jobs 1 %s > %s 2>&1"
         (Filename.quote dir) (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "bad.c"; "good.c" ];
  Sys.rmdir dir;
  Sys.remove out;
  Alcotest.(check int) "exit 0 while a job succeeds" 0 code;
  Alcotest.(check bool) ("per-job parse error in: " ^ text) true
    (contains "bad                      ERROR parse error at 1:" text)

let suites =
  [ "service",
    [ Alcotest.test_case "cache hit on identical job" `Quick
        test_cache_hit_identical;
      Alcotest.test_case "cache miss on option change" `Quick
        test_cache_miss_on_option_change;
      Alcotest.test_case "loop-free kernel converges across unroll" `Quick
        test_loop_free_unroll_converges;
      Alcotest.test_case "option fingerprints" `Quick
        test_option_fingerprints;
      Alcotest.test_case "equivalent pass lists share an artifact" `Quick
        test_equivalent_selections_share_artifact;
      Alcotest.test_case "serve validates disable_passes" `Quick
        test_serve_disable_passes;
      Alcotest.test_case "artifact key sees pass selection" `Quick
        test_artifact_key_sees_pass_selection;
      Alcotest.test_case "disk cache survives a restart" `Quick
        test_disk_cache_survives_process;
      Alcotest.test_case "an older artifact format reads as a miss" `Quick
        test_old_disk_format_is_a_miss;
      Alcotest.test_case "batch isolates a failing kernel" `Quick
        test_batch_isolates_failure;
      Alcotest.test_case "batch reports an unparseable file per job" `Quick
        test_batch_reports_unparseable_file;
      Alcotest.test_case "batch --table1 rejects option flags" `Quick
        test_table1_rejects_option_flags;
      Alcotest.test_case "parallel VHDL = sequential VHDL" `Slow
        test_parallel_matches_sequential;
      Alcotest.test_case "warm batch reports hits and is faster" `Slow
        test_warm_batch_faster_with_hits;
      Alcotest.test_case "sweep grid reuses the front end" `Quick
        test_sweep_grid;
      Alcotest.test_case "sweep hits the cache for every mid-end pass" `Quick
        test_sweep_per_pass_cache_hits;
      Alcotest.test_case "batch siblings store only mid-end states" `Quick
        test_batch_siblings_store_only_mid_end;
      Alcotest.test_case "scheduler slots are deterministic" `Quick
        test_scheduler_deterministic_slots;
      Alcotest.test_case "effective worker clamping" `Quick
        test_effective_workers;
      Alcotest.test_case "chunked claiming edge cases" `Quick
        test_scheduler_chunk_edge_cases;
      Alcotest.test_case "no negative scaling past core count" `Slow
        test_scheduler_scaling_guard;
      Alcotest.test_case "batch report carries worker count" `Quick
        test_run_batch_reports_workers;
      Alcotest.test_case "trace exports chrome JSON" `Quick
        test_trace_export;
      Alcotest.test_case "driver instrument hook" `Quick
        test_driver_instrument_hook;
      Alcotest.test_case "typed vm error" `Quick test_vm_error_typed;
      Alcotest.test_case "interp div-by-zero is a driver error" `Quick
        test_interp_div_zero_is_driver_error ];
    "service.resilience",
    [ Alcotest.test_case "fault spec parsing" `Quick test_faults_parse;
      Alcotest.test_case "fault accumulator is deterministic" `Quick
        test_faults_deterministic_accumulator;
      Alcotest.test_case "cache sweeps stranded tmp files" `Quick
        test_cache_sweeps_stranded_tmp;
      Alcotest.test_case "cache write fault degrades, never raises" `Quick
        test_cache_write_fault_degrades;
      Alcotest.test_case "cache read fault recovered by retry" `Quick
        test_cache_read_fault_retries_through;
      Alcotest.test_case "CLI flag validators" `Quick test_flag_validators;
      Alcotest.test_case "--jobs 0 means auto" `Quick test_check_jobs_auto;
      Alcotest.test_case "json round-trip and rejection" `Quick
        test_json_roundtrip;
      Alcotest.test_case "pass-boundary cancellation hook" `Quick
        test_pass_cancellation_hook ];
    "service.farm",
    [ Alcotest.test_case "pool run covers every tid" `Quick
        test_pool_run_covers_tids;
      Alcotest.test_case "pool spawn/join tids" `Quick
        test_pool_spawn_join_tids;
      Alcotest.test_case "pool joins all workers on failure" `Quick
        test_pool_exception_joins_all;
      Alcotest.test_case "N-domain cache hammer" `Slow
        test_cache_hammer_across_domains;
      Alcotest.test_case "health reports workers and cache" `Quick
        test_health_reports_workers_and_cache;
      Alcotest.test_case "single-flight dedup executes once" `Quick
        test_single_flight_dedup;
      Alcotest.test_case "state flights dedupe concurrent costing" `Quick
        test_state_flight_dedup;
      Alcotest.test_case "a failing state leader frees its follower" `Quick
        test_state_flight_failing_leader;
      Alcotest.test_case "tmp sweep respects live pids" `Quick
        test_tmp_sweep_respects_live_pids ];
    "service.serve",
    [ Alcotest.test_case "protocol round-trip" `Quick
        test_serve_protocol_roundtrip;
      Alcotest.test_case "oversized request rejected" `Quick
        test_serve_oversized_request;
      Alcotest.test_case "deadline exceeded is structured" `Quick
        test_serve_deadline_exceeded;
      Alcotest.test_case "bounded queue sheds under overload" `Quick
        test_serve_sheds_when_overloaded;
      Alcotest.test_case "64-request fault-injected soak" `Slow
        test_serve_fault_soak;
      Alcotest.test_case "concurrent socket clients" `Quick
        test_serve_socket_concurrent_clients;
      Alcotest.test_case "EOF on one connection spares the rest" `Quick
        test_serve_socket_eof_isolated;
      Alcotest.test_case "140 connections: refuse the excess, keep serving"
        `Quick test_serve_socket_refuses_past_domain_limit ] ]
