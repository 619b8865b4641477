(* The batch compilation service: content-addressed caching + the domain
   scheduler + structured tracing, over the pass-manager pipeline.

   A job is (source, entry, options, luts). Compilation consults the cache
   deepest-first at per-pass granularity:

     full artifact (all options)          -> memory or disk
     one chained key per mid-end pass     -> pipeline state, memory only

   The chained keys cover the front + kernel pipelines (parse through
   feedback-detection); each link digests the previous link, the pass name
   and that pass's own option fingerprint, so a warm rerun costs one
   lookup, a front option change re-runs only from the first affected
   pass, and a back-end option sweep (bus width, stage budget, width
   inference) reuses every mid-end pass and re-runs only the back end. *)

module Driver = Roccc_core.Driver
module Pass = Roccc_core.Pass
module Kernels = Roccc_core.Kernels
module Lut_conv = Roccc_hir.Lut_conv
module Area = Roccc_fpga.Area
module Pipeline = Roccc_datapath.Pipeline

let now = Unix.gettimeofday

type job = {
  label : string;          (* display name, unique within a batch *)
  source : string;
  entry : string;
  options : Driver.options;
  luts : Lut_conv.table list;
}

type origin =
  | Cold            (* every pass ran *)
  | Warm_partial    (* a mid-end prefix reused; the rest re-ran *)
  | Warm_stage      (* every mid-end pass reused; back end ran *)
  | Warm_memory     (* finished artifact from the in-memory cache *)
  | Warm_disk       (* finished artifact reloaded from _roccc_cache/ *)
  | Coalesced       (* waited on a concurrent identical compile (single-flight) *)

let origin_name = function
  | Cold -> "cold"
  | Warm_partial -> "warm-partial"
  | Warm_stage -> "warm-stage"
  | Warm_memory -> "warm"
  | Warm_disk -> "warm-disk"
  | Coalesced -> "coalesced"

type success = {
  r_label : string;
  r_entry : string;
  r_vhdl : (string * string) list;   (* filename -> contents *)
  r_slices : int;
  r_operator_slices : int;
  r_clock_mhz : float;
  r_latency : int;
  r_latch_bits : int;
  r_pass_trace : string list;
  r_elapsed_s : float;
  r_origin : origin;
}

type report = {
  rp_results : (job * (success, string) result) array;  (* submission order *)
  rp_wall_s : float;
  rp_domains : int;   (* requested *)
  rp_workers : int;   (* effective: clamped to cores and job count *)
  rp_cache : Cache.stats option;
}

(* ------------------------------------------------------------------ *)
(* One job                                                             *)
(* ------------------------------------------------------------------ *)

let vhdl_files (c : Driver.compiled) : (string * string) list =
  Roccc_vhdl.Ast.to_files c.Driver.design
  @
  match c.Driver.system_vhdl with
  | Some text -> [ c.Driver.entry ^ "_system.vhd", text ]
  | None -> []

let artifact_of (c : Driver.compiled) : Cache.artifact =
  { Cache.art_entry = c.Driver.entry;
    art_vhdl = vhdl_files c;
    art_slices = c.Driver.area.Area.slices;
    art_operator_slices = c.Driver.area.Area.operator_slices;
    art_clock_mhz = c.Driver.area.Area.clock_mhz;
    art_latency = Pipeline.latency c.Driver.pipeline;
    art_latch_bits = c.Driver.pipeline.Pipeline.latch_bits;
    art_pass_trace = c.Driver.pass_trace }

let success_of_artifact ~label ~elapsed ~origin (a : Cache.artifact) : success
    =
  { r_label = label;
    r_entry = a.Cache.art_entry;
    r_vhdl = a.Cache.art_vhdl;
    r_slices = a.Cache.art_slices;
    r_operator_slices = a.Cache.art_operator_slices;
    r_clock_mhz = a.Cache.art_clock_mhz;
    r_latency = a.Cache.art_latency;
    r_latch_bits = a.Cache.art_latch_bits;
    r_pass_trace = a.Cache.art_pass_trace;
    r_elapsed_s = elapsed;
    r_origin = origin }

(* The mid-end pipeline whose states are cached per pass: everything up to
   (and including) the storage-level kernel passes. The back end mutates
   its procedure in place, so its states are never shared. *)
let mid_passes = Pass.front_passes @ Pass.kernel_passes

(* The finished artifact's identity includes the pass selection: disabling
   an optional pass changes the generated VHDL without changing any option
   field, and artifacts persist in the disk cache across processes. *)
let full_key ?config (job : job) : Fingerprint.t =
  let config =
    match config with Some c -> c | None -> Pass.default_config ()
  in
  Fingerprint.make ~stage:"full"
    ~selection:(Pass.selection_fingerprint config)
    ~source:job.source ~entry:job.entry
    ~options_fp:(Driver.options_fingerprint job.options)
    ~luts:job.luts

(** The chained per-pass fingerprints of the job's mid-end pipeline, in
    execution order: one (pass, key-of-state-after-it) per statically
    selected pass. *)
let pass_keys ?config (job : job) : (Pass.pass * Fingerprint.t) list =
  let selected = Pass.executed ?config job.options mid_passes in
  let seed =
    Fingerprint.seed ~source:job.source ~entry:job.entry ~luts:job.luts
  in
  let _, keyed =
    List.fold_left
      (fun (fp, acc) (p : Pass.pass) ->
        let fp =
          Fingerprint.chain fp ~pass:p.Pass.name
            ~options_fp:(p.Pass.fingerprint job.options)
        in
        fp, (p, fp) :: acc)
      (seed, []) selected
  in
  List.rev keyed

(* The tracing instrument every cached entry point installs: forward to
   the caller's hook, then record a per-pass span. *)
let traced_config ?trace ~tid (job : job) (base_config : Pass.config) :
    Pass.config =
  { base_config with
    Pass.instrument =
      Some
        (fun (ps : Driver.pass_stats) ->
          Option.iter (fun f -> f ps) base_config.Pass.instrument;
          Option.iter
            (fun tr ->
              Trace.add_span tr ~cat:"pass" ~tid ~name:ps.Driver.pass_name
                ~start_s:ps.Driver.started_s ~dur_s:ps.Driver.elapsed_s
                ~args:
                  [ "job", Trace.Str job.label;
                    "ir_size", Trace.Int ps.Driver.ir_size ]
                ())
            trace) }

(* Resume the mid-end pipeline from the deepest cached per-pass state
   (storing each newly computed state back), returning the completed
   mid-end state and how many passes were reused. Reused passes appear in
   [trace] with a [cached] argument and zero duration. *)
let run_mid_end ?cache ~(base_config : Pass.config) ~(config : Pass.config)
    ?trace ~tid (job : job) : Pass.state * int * int =
  let keyed = Array.of_list (pass_keys ~config:base_config job) in
  let n = Array.length keyed in
  (* deepest cached state first *)
  let rec probe i =
    if i < 0 then None
    else
      match Option.bind cache (fun c -> Cache.find c (snd keyed.(i))) with
      | Some (Cache.State st, _) -> Some (i, st)
      | _ -> probe (i - 1)
  in
  let st, start_idx =
    match if cache = None then None else probe (n - 1) with
    | Some (idx, st) ->
      (* Cached mid-end states hold only immutable IR; re-bind the
         job-specific options (the chain guarantees every option field a
         reused pass reads is equal). Reused passes get zero-duration
         spans so the trace still shows the full Figure 1 pipeline. *)
      Option.iter
        (fun tr ->
          let t = now () in
          List.iter
            (fun name ->
              Trace.add_span tr ~cat:"pass" ~tid ~name ~start_s:t ~dur_s:0.0
                ~args:[ "job", Trace.Str job.label; "cached", Trace.Int 1 ]
                ())
            st.Pass.st_trace)
        trace;
      { st with Pass.st_options = job.options }, idx + 1
    | None ->
      ( Pass.initial ~luts:job.luts ~options:job.options ~entry:job.entry
          job.source,
        0 )
  in
  let st = ref st in
  for i = start_idx to n - 1 do
    let p, key = keyed.(i) in
    st := Pass.step ~config p !st;
    Option.iter (fun c -> Cache.store c key (Cache.State !st)) cache
  done;
  !st, start_idx, n

(* The preamble the three costing tiers share: default and validate the
   pass selection, install the tracing instrument, and hand back a thunk
   that resumes the cached mid-end — [compile_cached] forces it only when
   the finished artifact is not cached. The thunk also reports where the
   mid-end came from. *)
let prepare ?cache ?config ?trace ~tid (job : job) :
    Pass.config * Pass.config * (unit -> Driver.staged_kernel * origin) =
  let base_config =
    match config with Some c -> c | None -> Pass.default_config ()
  in
  Pass.validate_selection base_config;
  let config = traced_config ?trace ~tid job base_config in
  let mid_end () =
    let st, start_idx, n =
      run_mid_end ?cache ~base_config ~config ?trace ~tid job
    in
    ( Driver.staged_of_state st,
      if start_idx = 0 then Cold
      else if start_idx < n then Warm_partial
      else Warm_stage )
  in
  base_config, config, mid_end

(** Compile one job, consulting [cache] deepest-first — the full artifact,
    then the chained per-pass states of the mid-end pipeline — resuming
    from the deepest cached state and reporting per-pass spans to [trace]
    (reused passes appear with a [cached] argument and zero duration).

    Executions are single-flight per full fingerprint: when a cache is
    given and the same key is already compiling on another domain, this
    call blocks on that leader's completion and shares its cached
    artifact (origin {!Coalesced}, a zero-duration ["coalesced"] trace
    span, and a bump of the cache's [coalesced] counter) instead of
    compiling again. Raises {!Driver.Error} on failure. *)
let compile_cached ?cache ?config ?trace ?(tid = 0) (job : job) : success =
  let t0 = now () in
  let base_config, config, mid_end = prepare ?cache ?config ?trace ~tid job in
  let full_key = full_key ~config:base_config job in
  let finish origin (c : Driver.compiled) =
    let art = artifact_of c in
    Option.iter (fun cache -> Cache.store cache full_key (Cache.Artifact art)) cache;
    success_of_artifact ~label:job.label ~elapsed:(now () -. t0) ~origin art
  in
  let from_artifact origin (a : Cache.artifact) =
    success_of_artifact ~label:job.label ~elapsed:(now () -. t0) ~origin a
  in
  let execute () =
    let staged, origin = mid_end () in
    finish origin (Driver.back_end ~config ~options:job.options staged)
  in
  match Option.bind cache (fun c -> Cache.find c full_key) with
  | Some (Cache.Artifact a, where) ->
    let origin =
      match where with Cache.Memory -> Warm_memory | Cache.Disk -> Warm_disk
    in
    from_artifact origin a
  | Some _ | None -> (
    match cache with
    | None -> execute ()
    | Some c -> (
      match Cache.enter_flight c full_key with
      | `Leader -> (
        (* re-probe under leadership: a previous leader may have stored
           and exited between our probe above and winning the flight, in
           which case there is nothing to execute and the flight is
           retracted (so [flights] counts executions exactly) *)
        match Cache.find c full_key with
        | Some (Cache.Artifact a, where) ->
          Cache.abort_flight c full_key;
          let origin =
            match where with
            | Cache.Memory -> Warm_memory
            | Cache.Disk -> Warm_disk
          in
          from_artifact origin a
        | Some _ | None ->
          (* the flight is exited on success AND failure: a dying leader
             must wake its followers, who then compile for themselves *)
          Fun.protect
            ~finally:(fun () -> Cache.exit_flight c full_key)
            execute)
      | `Coalesced -> (
        (* we slept through any deadline while the leader ran; honour it
           before answering from the shared artifact *)
        (match base_config.Pass.cancel with
        | Some check -> (
          match check () with
          | Some reason -> raise (Pass.Cancelled reason)
          | None -> ())
        | None -> ());
        Option.iter
          (fun tr ->
            Trace.add_span tr ~cat:"pass" ~tid ~name:"coalesced"
              ~start_s:(now ()) ~dur_s:0.0
              ~args:
                [ "job", Trace.Str job.label; "coalesced", Trace.Int 1 ]
              ())
          trace;
        match Cache.find c full_key with
        | Some (Cache.Artifact a, _) -> from_artifact Coalesced a
        | Some _ | None ->
          (* the leader failed (or its store degraded); fall back to our
             own execution — its warm per-pass states still help *)
          execute ())))

(** Measure one job without generating VHDL: the mid-end resumes from the
    same chained per-pass cache entries {!compile_cached} uses (so an
    estimate run warms the cache for a later full run and vice versa),
    then the estimate-only back end prices it. Raises {!Driver.Error}. *)
let measure_cached ?cache ?config ?trace ?(tid = 0) (job : job) :
    Driver.measurement =
  let _, config, mid_end = prepare ?cache ?config ?trace ~tid job in
  Driver.estimate_back_end ~config ~options:job.options (fst (mid_end ()))

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

let describe_error (e : exn) : string option =
  match e with
  | Driver.Error msg -> Some msg
  | Roccc_cfront.Parser.Error (msg, line, col) ->
    Some (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | Roccc_cfront.Semant.Error msg -> Some ("semantic error: " ^ msg)
  | Roccc_vm.Instr.Vm_error msg -> Some ("vm error: " ^ msg)
  | Pass.Cancelled reason -> Some ("cancelled: " ^ reason)
  | Faults.Injected _ -> Faults.describe e
  | _ -> None

let run_batch ?cache ?config ?trace ?(num_domains = 0) (jobs : job list) :
    report =
  let t0 = now () in
  let arr = Array.of_list jobs in
  let domains =
    if num_domains <= 0 then Scheduler.default_domains () else num_domains
  in
  let workers =
    Scheduler.effective_workers ~num_domains:domains (Array.length arr)
  in
  let f ~tid (job : job) : success =
    let j0 = now () in
    match compile_cached ?cache ?config ?trace ~tid job with
    | s ->
      Option.iter
        (fun tr ->
          Trace.add_span tr ~cat:"job" ~tid ~name:job.label ~start_s:j0
            ~dur_s:(now () -. j0)
            ~args:
              [ "status", Trace.Str "ok";
                "origin", Trace.Str (origin_name s.r_origin);
                "slices", Trace.Int s.r_slices ]
            ())
        trace;
      s
    | exception e ->
      Option.iter
        (fun tr ->
          Trace.add_span tr ~cat:"job" ~tid ~name:job.label ~start_s:j0
            ~dur_s:(now () -. j0)
            ~args:
              [ "status", Trace.Str "error";
                "message",
                Trace.Str
                  (Option.value (describe_error e)
                     ~default:(Printexc.to_string e)) ]
            ())
        trace;
      raise e
  in
  let results = Scheduler.parallel_map ~num_domains:domains ~describe_error ~f arr in
  { rp_results = Array.map2 (fun j r -> j, r) arr results;
    rp_wall_s = now () -. t0;
    rp_domains = domains;
    rp_workers = workers;
    rp_cache = Option.map Cache.stats cache }

(* ------------------------------------------------------------------ *)
(* Job builders                                                        *)
(* ------------------------------------------------------------------ *)

let table1_jobs () : job list =
  List.map
    (fun (b : Kernels.benchmark) ->
      { label = b.Kernels.bench_name;
        source = b.Kernels.source;
        entry = b.Kernels.entry;
        options = b.Kernels.tune Driver.default_options;
        luts = b.Kernels.luts })
    Kernels.table1

let sweep_jobs ?(base = Driver.default_options) ?(luts = [])
    ?(target_ns : float list = []) ~(source : string) ~(entry : string)
    ~(unroll_factors : int list) ~(bus_widths : int list) () : job list =
  (* an empty clock axis means "sweep only the base target" — labels then
     keep their historical u/b shape *)
  let targets, label_target =
    match target_ns with
    | [] -> [ base.Driver.target_ns ], false
    | ts -> ts, List.length ts > 1
  in
  List.concat_map
    (fun tns ->
      List.concat_map
        (fun unroll ->
          List.map
            (fun bus ->
              let label =
                if label_target then
                  Printf.sprintf "%s.u%d.b%d.t%g" entry unroll bus tns
                else Printf.sprintf "%s.u%d.b%d" entry unroll bus
              in
              { label;
                source;
                entry;
                options =
                  { base with
                    Driver.unroll_outer_factor = unroll;
                    bus_elements = bus;
                    target_ns = tns };
                luts })
            bus_widths)
        unroll_factors)
    targets

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let successes (r : report) : (job * success) list =
  Array.to_list r.rp_results
  |> List.filter_map (fun (j, res) ->
         match res with Ok s -> Some (j, s) | Error _ -> None)

let failures (r : report) : (job * string) list =
  Array.to_list r.rp_results
  |> List.filter_map (fun (j, res) ->
         match res with Ok _ -> None | Error msg -> Some (j, msg))

let trace_meta (r : report) : (string * Trace.arg) list =
  let cache_meta =
    match r.rp_cache with
    | None -> [ "cache_enabled", Trace.Int 0 ]
    | Some s ->
      [ "cache_enabled", Trace.Int 1;
        "cache_hits", Trace.Int s.Cache.hits;
        "cache_disk_hits", Trace.Int s.Cache.disk_hits;
        "cache_misses", Trace.Int s.Cache.misses;
        "cache_stores", Trace.Int s.Cache.stores ]
  in
  [ "wall_s", Trace.Float r.rp_wall_s;
    "domains", Trace.Int r.rp_domains;
    "workers", Trace.Int r.rp_workers;
    "jobs", Trace.Int (Array.length r.rp_results);
    "failed", Trace.Int (List.length (failures r)) ]
  @ cache_meta

let report_json (r : report) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  Buffer.add_string buf (Printf.sprintf "\"wall_s\":%.6f," r.rp_wall_s);
  Buffer.add_string buf (Printf.sprintf "\"domains\":%d," r.rp_domains);
  Buffer.add_string buf (Printf.sprintf "\"workers\":%d," r.rp_workers);
  (match r.rp_cache with
  | None -> Buffer.add_string buf "\"cache\":null,"
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf
         "\"cache\":{\"hits\":%d,\"disk_hits\":%d,\"misses\":%d,\"stores\":%d},"
         s.Cache.hits s.Cache.disk_hits s.Cache.misses s.Cache.stores));
  Buffer.add_string buf "\"jobs\":[";
  Array.iteri
    (fun i (j, res) ->
      if i > 0 then Buffer.add_char buf ',';
      match res with
      | Ok s ->
        Buffer.add_string buf
          (Trace.args_json
             [ "label", Trace.Str j.label;
               "status", Trace.Str "ok";
               "origin", Trace.Str (origin_name s.r_origin);
               "elapsed_s", Trace.Float s.r_elapsed_s;
               "slices", Trace.Int s.r_slices;
               "clock_mhz", Trace.Float s.r_clock_mhz;
               "latency", Trace.Int s.r_latency;
               "latch_bits", Trace.Int s.r_latch_bits ])
      | Error msg ->
        Buffer.add_string buf
          (Trace.args_json
             [ "label", Trace.Str j.label;
               "status", Trace.Str "error";
               "message", Trace.Str msg ]))
    r.rp_results;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let summary (r : report) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun (j, res) ->
      match res with
      | Ok s ->
        Buffer.add_string buf
          (Printf.sprintf
             "%-24s ok    %5d slices @ %6.1f MHz, %2d-stage, %5d latch \
              bits, %7.1f ms (%s)\n"
             j.label s.r_slices s.r_clock_mhz s.r_latency s.r_latch_bits
             (s.r_elapsed_s *. 1e3)
             (origin_name s.r_origin))
      | Error msg ->
        Buffer.add_string buf (Printf.sprintf "%-24s ERROR %s\n" j.label msg))
    r.rp_results;
  let nfail = List.length (failures r) in
  Buffer.add_string buf
    (Printf.sprintf "%d job(s), %d failed, %d worker(s), %.1f ms wall"
       (Array.length r.rp_results) nfail r.rp_workers (r.rp_wall_s *. 1e3));
  (match r.rp_cache with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf "; cache: %d hit(s) (%d disk), %d miss(es)"
         (s.Cache.hits + s.Cache.disk_hits)
         s.Cache.disk_hits s.Cache.misses)
  | None -> ());
  Buffer.contents buf
