(** The batch compilation service: fans (source, entry, options) jobs
    across worker domains, memoizing stage outputs in a content-addressed
    {!Cache} and collecting per-pass timings in a {!Trace}.

    Results are deterministic: job [i]'s slot in the report is job [i]'s
    result no matter how many domains ran the batch, and the generated
    VHDL is byte-identical to a sequential uncached compilation. *)

type job = {
  label : string;  (** display name, unique within a batch *)
  source : string;
  entry : string;
  options : Roccc_core.Driver.options;
  luts : Roccc_hir.Lut_conv.table list;
}

(** Where a job's result came from. *)
type origin =
  | Cold  (** every pass ran *)
  | Warm_partial
      (** a prefix of the mid-end passes was reused; the rest re-ran *)
  | Warm_stage  (** every mid-end pass reused; only the back end ran *)
  | Warm_memory  (** finished artifact from the in-memory cache *)
  | Warm_disk  (** finished artifact reloaded from the disk cache *)
  | Coalesced
      (** a concurrent identical compile was already executing; this job
          blocked on that leader and shares its artifact (single-flight
          deduplication) *)

val origin_name : origin -> string

type success = {
  r_label : string;
  r_entry : string;
  r_vhdl : (string * string) list;  (** filename -> contents *)
  r_slices : int;
  r_operator_slices : int;
  r_clock_mhz : float;
  r_latency : int;
  r_latch_bits : int;  (** pipeline-register bits after retiming *)
  r_pass_trace : string list;
  r_elapsed_s : float;
  r_origin : origin;
}

type report = {
  rp_results : (job * (success, string) result) array;
      (** in submission order; [Error] is one job's failure message *)
  rp_wall_s : float;
  rp_domains : int;  (** domains requested *)
  rp_workers : int;
      (** workers actually used: the request clamped to the hardware
          parallelism and the job count ({!Scheduler.effective_workers}) *)
  rp_cache : Cache.stats option;
}

val run_mid_end :
  ?cache:Cache.t ->
  base_config:Roccc_core.Pass.config ->
  config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  tid:int ->
  job ->
  Roccc_core.Pass.state * int * int
(** Resume the mid-end pipeline (parse through the kernel passes) from
    the deepest cached per-pass state, storing each newly computed
    state back. Returns the completed mid-end state, the index of the
    first pass that actually ran, and the number of selected passes.
    The process-network planner uses this to share per-kernel mid-end
    work between network and single-kernel compiles. *)

val compile_cached :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?tid:int ->
  job ->
  success
(** Compile one job, consulting the cache deepest-first — the finished
    artifact, then one chained fingerprint per mid-end pass (parse through
    feedback-detection) — resuming compilation from the deepest cached
    pipeline state and tracing each pass (reused passes appear with a
    [cached] argument and zero duration). [config] selects passes and
    enables IR verification / differential checks.

    Executions are single-flight per full fingerprint: with a cache,
    concurrent requests for the same key collapse to one execution — the
    followers block on the leader's completion and share its cached
    artifact with origin {!Coalesced} and a zero-duration ["coalesced"]
    trace span ({!Cache.stats} counts [flights] and [coalesced]).
    Raises {!Roccc_core.Driver.Error} on failure. *)

val measure_cached :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?tid:int ->
  job ->
  Roccc_core.Driver.measurement
(** Like {!compile_cached} but running the estimate-only back end (no
    VHDL generation or linting): the mid-end resumes from the same
    chained per-pass cache entries, so estimate runs and full runs warm
    each other's prefixes. The measurement's slices/clock/latch numbers
    are identical to a full compile's. Raises {!Roccc_core.Driver.Error}. *)

val run_batch :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?num_domains:int ->
  job list ->
  report
(** Run a batch across up to [num_domains] workers ([<= 0] or omitted:
    {!Scheduler.default_domains}). One kernel's failure does not affect
    the other jobs. *)

val describe_error : exn -> string option
(** User-facing message for the compiler's known exceptions. *)

val table1_jobs : unit -> job list
(** The paper's nine Table 1 kernels, with their per-kernel tuned options. *)

val sweep_jobs :
  ?base:Roccc_core.Driver.options ->
  ?luts:Roccc_hir.Lut_conv.table list ->
  ?target_ns:float list ->
  source:string ->
  entry:string ->
  unroll_factors:int list ->
  bus_widths:int list ->
  unit ->
  job list
(** The design-space grid: one job per (clock target, unroll factor, bus
    width) triple, labelled ["<entry>.u<f>.b<w>"] — with a [".t<ns>"]
    suffix when more than one [target_ns] is swept. An empty [target_ns]
    (the default) sweeps only the base options' clock target. *)

val vhdl_files : Roccc_core.Driver.compiled -> (string * string) list
(** The files a compile produces: the design's VHDL + ROM inits + the
    optional system wrapper. *)

val successes : report -> (job * success) list
val failures : report -> (job * string) list

val summary : report -> string
(** Human-readable per-job lines plus batch totals. *)

val report_json : report -> string
(** Batch summary as a JSON object (wall time, cache stats, per-job rows). *)

val trace_meta : report -> (string * Trace.arg) list
(** Batch-level metadata for {!Trace.to_chrome_json}'s [meta] object. *)
