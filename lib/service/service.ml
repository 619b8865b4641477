(* The batch compilation service: content-addressed caching + the domain
   scheduler + structured tracing, over the pass-manager pipeline.

   A job is (source, entry, options, luts). Compilation consults the cache
   at three granularities:

     full artifact (every pass that runs) -> memory or disk
     one chained key per kept state       -> pipeline state, memory only
     the linted state's key (front only)  -> rendered files, memory only

   Each link of the chain digests the previous link, the pass name and
   that pass's own option fingerprint, so an option change re-runs only
   from the first pass that reads it. A run of passes that returns its
   input unchanged (an [applicable] gate skipped it) adds no link, so
   jobs that differ only in what a skipped pass would read converge on
   one chain. A compile walks its passes forward once and keeps the
   mid-end states (parse through feedback-detection); the tuner's
   costing ([measure_cached]) and front compiles also keep the back-end
   states another job can branch from, and a front compile renders each
   design's files once for every artifact of it. Every kept state,
   rendering and artifact is computed once under a single flight of its
   key. *)

module Driver = Roccc_core.Driver
module Pass = Roccc_core.Pass
module Kernels = Roccc_core.Kernels
module Lut_conv = Roccc_hir.Lut_conv
module Area = Roccc_fpga.Area

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
  | Warm_stage      (* every mid-end pass reused; (part of) the back end ran *)
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
  r_area : Area.estimate;
  r_slices : int;
  r_clock_mhz : float;
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

(* The artifact of a finished state whose design renders to [files]. *)
let artifact_of (st : Pass.state) (files : (string * string) list) :
    Cache.artifact =
  { Cache.art_entry = st.Pass.st_entry;
    art_vhdl = files;
    art_area = Pass.need "area estimate" st.Pass.st_area;
    art_pass_trace = st.Pass.st_trace }

(* The one place a success is built. [r_slices], [r_clock_mhz] and
   [r_latch_bits] copy [r_area] for the benchmark harness, their only
   reader. *)
let success_of_artifact ~label ~elapsed ~origin (a : Cache.artifact) : success
    =
  let area = a.Cache.art_area in
  { r_label = label;
    r_entry = a.Cache.art_entry;
    r_vhdl = a.Cache.art_vhdl;
    r_area = area;
    r_slices = area.Area.slices;
    r_clock_mhz = area.Area.clock_mhz;
    r_latch_bits = area.Area.latch_bits;
    r_pass_trace = a.Cache.art_pass_trace;
    r_elapsed_s = elapsed;
    r_origin = origin }

(* The mid end: every pass up to (and including) the storage-level kernel
   passes. A compile keeps these states: serve's memory tier never
   evicts, and a kernel's back-end states weigh several times its mid-end
   states. *)
let mid_passes = Pass.front_passes @ Pass.kernel_passes

(* The costing chain: every pass but the VHDL layer's. Neither VHDL pass
   feeds the area model, so its metrics equal a full compile's. *)
let measure_passes =
  List.filter (fun (p : Pass.pass) -> p.Pass.layer <> Pass.Vhdl) Pass.all_passes

(* The finished artifact's identity: the inputs plus every pass that runs
   with the option fields it reads. Disabling a pass changes the list; an
   option no running pass reads, or a disabled pass that was gated off
   anyway, does not. It stays a static digest of the job, unlike the
   state keys [resume] chains as it walks: the disk tier and serve's hot
   path probe it before any state exists. *)
let full_key (job : job) : Fingerprint.t =
  Fingerprint.make ~source:job.source ~entry:job.entry ~luts:job.luts
    ~passes:
      (List.map
         (fun (p : Pass.pass) -> p.Pass.name, p.Pass.fingerprint job.options)
         (Pass.executed job.options Pass.all_passes))

(* The key of the state [p] produces from the state keyed [key]. *)
let link (job : job) (key : Fingerprint.t) (p : Pass.pass) : Fingerprint.t =
  Fingerprint.chain key ~pass:p.Pass.name
    ~options_fp:(p.Pass.fingerprint job.options)

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

(* Run the job's [passes] in one forward walk, probing and storing only
   the states the job keeps: every mid-end state and, with
   [share_back_end], each back-end state where another job's chain can
   leave this one — before a pass that reads an option (the clock target
   at [pipelining], the bus width at [area-estimation]) and before the
   VHDL layer, which costing leaves out. Only a job equal to this one
   could resume from the states in between.

   The passes between kept states are stepped lazily, so nothing runs
   before a later hit. A hit adopts the stored state; a miss computes it
   under a single flight of its key, so concurrent jobs that reach one
   state compute it once. A computation whose result is physically its
   input (every pass in it was skipped) stores nothing and leaves the key
   unchanged. Returns the final state, the key of the last kept state
   (the final state is that state stepped through the passes after it)
   and where the mid end came from. Reused passes appear in [trace] with
   a [cached] argument and zero duration. *)
let resume ?cache ~(share_back_end : bool) ~(config : Pass.config) ?trace
    ~tid (job : job) (passes : Pass.pass list) :
    Pass.state * Fingerprint.t * origin =
  let executed = Array.of_list (Pass.executed job.options passes) in
  let n = Array.length executed in
  let kept i =
    let p = executed.(i) in
    List.memq p mid_passes
    || share_back_end && i + 1 < n
       &&
       let q = executed.(i + 1) in
       q.Pass.fingerprint job.options <> ""
       || (q.Pass.layer = Pass.Vhdl && p.Pass.layer <> Pass.Vhdl)
  in
  let hit = ref false and mid_ran = ref false in
  (* No pass mutates its input state, so a cached state is shared as is;
     re-bind the job-specific options (the chain guarantees every option
     field a reused pass reads is equal). Each reused pass gets a
     zero-duration span so the trace still shows the full Figure 1
     pipeline. *)
  let adopt (current : Pass.state) (cached : Pass.state) =
    hit := true;
    let shown = List.length current.Pass.st_trace in
    Option.iter
      (fun tr ->
        let t = now () in
        List.iteri
          (fun k name ->
            if k >= shown then
              Trace.add_span tr ~cat:"pass" ~tid ~name ~start_s:t ~dur_s:0.0
                ~args:[ "job", Trace.Str job.label; "cached", Trace.Int 1 ]
                ())
          cached.Pass.st_trace)
      trace;
    { cached with Pass.st_options = job.options }
  in
  let step_all pending st =
    List.fold_left (fun st p -> Pass.step ~config p st) st (List.rev pending)
  in
  (* [st] is the last state the walk holds, keyed [key]; [pending] (latest
     first) are the passes stepped lazily since, which chain [key] to
     [pending_key]. *)
  let rec walk st key pending pending_key i =
    if i = n then step_all pending st, key
    else
      let p = executed.(i) in
      let pending = p :: pending and pending_key = link job pending_key p in
      if not (kept i) then walk st key pending pending_key (i + 1)
      else
        let compute () =
          let st' = step_all pending st in
          if st' != st then
            Option.iter
              (fun c -> Cache.store c pending_key (Cache.State st'))
              cache;
          st'
        in
        let flight =
          match cache with
          | None -> Cache.Computed (compute ())
          | Some c ->
            Cache.single_flight c pending_key ~counted:false
              ~find:(fun () -> Cache.find_state c pending_key)
              ~compute
        in
        match flight with
        | Cache.Found cached | Cache.Coalesced cached ->
          walk (adopt st cached) pending_key [] pending_key (i + 1)
        | Cache.Computed st' when st' == st -> walk st key [] key (i + 1)
        | Cache.Computed st' ->
          if List.memq p mid_passes then mid_ran := true;
          walk st' pending_key [] pending_key (i + 1)
  in
  let seed = Fingerprint.seed ~source:job.source ~entry:job.entry ~luts:job.luts in
  let st, key =
    walk
      (Pass.initial ~luts:job.luts ~options:job.options ~entry:job.entry
         job.source)
      seed [] seed 0
  in
  ( st,
    key,
    if not !hit then Cold else if !mid_ran then Warm_partial else Warm_stage )

let run_chain ?cache ~config ?trace ~tid (job : job) : Pass.state * origin =
  let st, _, origin =
    resume ?cache ~share_back_end:false ~config ?trace ~tid job Pass.all_passes
  in
  st, origin

(* A design's rendered files, once per [linted] key: the key of the last
   state a [share_back_end] compile keeps, before [area-estimation]. That
   pass adds only the estimate, which the files do not read, so every job
   whose chain reaches this state renders the same text; each such
   artifact shares the one physical list. The files get a key of their
   own, one link past the state's, which the cache holds too. *)
let render_once (cache : Cache.t) (linted : Fingerprint.t) (st : Pass.state) :
    (string * string) list =
  let key = Fingerprint.chain linted ~pass:"render" ~options_fp:"" in
  match
    Cache.single_flight cache key ~counted:false
      ~find:(fun () -> Cache.find_files cache key)
      ~compute:(fun () ->
        let files = Driver.files (Driver.compiled_of_state st) in
        Cache.store cache key (Cache.Files files);
        files)
  with
  | Cache.Found files | Cache.Computed files | Cache.Coalesced files -> files

(* The preamble the cached entry points share: default the config,
   validate the pass names and install the tracing instrument. Returns
   the caller's config and the traced one. *)
let prepare ?config ?trace ~tid (job : job) : Pass.config * Pass.config =
  let base_config =
    match config with Some c -> c | None -> Pass.default_config ()
  in
  Result.iter_error
    (fun msg -> raise (Driver.Error msg))
    (Pass.check_names ~dump_after:base_config.Pass.dump_after job.options);
  base_config, traced_config ?trace ~tid job base_config

(** Compile one job: the finished artifact from the cache, or a [resume]
    of its passes that stores it. Executions are single-flight per full
    fingerprint: a concurrent identical compile blocks on its leader and
    shares the artifact (origin {!Coalesced}, a zero-duration
    ["coalesced"] trace span). Raises {!Driver.Error} on failure. *)
let compile_cached ?cache ?(share_back_end = false) ?config ?trace ?(tid = 0)
    (job : job) : success =
  let t0 = now () in
  let base_config, config = prepare ?config ?trace ~tid job in
  let full_key = full_key job in
  let execute () =
    let st, linted, origin =
      resume ?cache ~share_back_end ~config ?trace ~tid job Pass.all_passes
    in
    let files =
      match cache with
      | Some cache when share_back_end -> render_once cache linted st
      | _ -> Driver.files (Driver.compiled_of_state st)
    in
    let art = artifact_of st files in
    Option.iter (fun cache -> Cache.store cache full_key (Cache.Artifact art)) cache;
    art, origin
  in
  let find c () =
    match Cache.find c full_key with
    | Some (Cache.Artifact a, Cache.Memory) -> Some (a, Warm_memory)
    | Some (Cache.Artifact a, Cache.Disk) -> Some (a, Warm_disk)
    | Some ((Cache.State _ | Cache.Files _), _) | None -> None
  in
  let art, origin =
    match cache with
    | None -> execute ()
    | Some c -> (
      match
        Cache.single_flight c full_key ~counted:true ~find:(find c)
          ~compute:execute
      with
      | Cache.Found r | Cache.Computed r -> r
      | Cache.Coalesced (a, _) ->
        (* we slept through any deadline while the leader ran; honour it
           before answering from the shared artifact *)
        Option.iter
          (fun check ->
            Option.iter (fun reason -> raise (Pass.Cancelled reason)) (check ()))
          base_config.Pass.cancel;
        Option.iter
          (fun tr ->
            Trace.add_span tr ~cat:"pass" ~tid ~name:"coalesced"
              ~start_s:(now ()) ~dur_s:0.0
              ~args:[ "job", Trace.Str job.label; "coalesced", Trace.Int 1 ]
              ())
          trace;
        a, Coalesced)
  in
  success_of_artifact ~label:job.label ~elapsed:(now () -. t0) ~origin art

(** Measure one job without generating VHDL: the chain of every pass but
    the VHDL layer's. It keeps the back-end states another job can branch
    from (see [resume]), so a search prices each distinct back-end prefix
    once, and a front compile of the same job resumes from its retimed
    state. Raises {!Driver.Error}. *)
let measure_cached ?cache ?config ?trace ?(tid = 0) (job : job) :
    Area.estimate =
  let _, config = prepare ?config ?trace ~tid job in
  let st, _, _ =
    resume ?cache ~share_back_end:true ~config ?trace ~tid job measure_passes
  in
  Pass.need "area estimate" st.Pass.st_area

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

let run_batch ?cache ?config ?trace ?(num_domains = 0) (jobs : job list) :
    report =
  let t0 = now () in
  let arr = Array.of_list jobs in
  let domains = Pool.resolve num_domains in
  let workers =
    Pool.effective_workers ~num_domains:domains (Array.length arr)
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
                "slices", Trace.Int s.r_area.Area.slices ]
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
                  (Option.value (Pool.describe_error e)
                     ~default:(Printexc.to_string e)) ]
            ())
        trace;
      raise e
  in
  let results = Pool.parallel_map ~num_domains:domains ~f arr in
  { rp_results = Array.map2 (fun j r -> j, r) arr results;
    rp_wall_s = now () -. t0;
    rp_domains = domains;
    rp_workers = workers;
    rp_cache = Option.map Cache.stats cache }

(* ------------------------------------------------------------------ *)
(* Job builders                                                        *)
(* ------------------------------------------------------------------ *)

let table1_jobs ?(disabled_passes = []) () : job list =
  List.map
    (fun (b : Kernels.benchmark) ->
      { label = b.Kernels.bench_name;
        source = b.Kernels.source;
        entry = b.Kernels.entry;
        options =
          { (b.Kernels.tune Driver.default_options) with
            Driver.disabled_passes };
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

let summary (r : report) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun (j, res) ->
      match res with
      | Ok s ->
        let a = s.r_area in
        Buffer.add_string buf
          (Printf.sprintf
             "%-24s ok    %5d slices @ %6.1f MHz, %2d-stage, %5d latch \
              bits, %7.1f ms (%s)\n"
             j.label a.Area.slices a.Area.clock_mhz a.Area.latency
             a.Area.latch_bits
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
