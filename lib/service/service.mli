(** The batch compilation service: fans (source, entry, options) jobs
    across worker domains, memoizing the finished artifact and the
    pipeline states a compile keeps in a content-addressed {!Cache}, and
    collecting per-pass timings in a {!Trace}.

    A state's key chains the previous state's key with each pass that
    ran and the option fields it reads, so jobs share every state up to
    the first pass whose options differ; a pass whose [applicable] gate
    skips it adds no link. Every stored state and artifact is computed
    once under a single flight of its key ({!Cache.single_flight}), so
    concurrent jobs that reach one state wait for it instead of
    computing it again. A search's front compiles also render each
    design's VHDL text once, keyed by its linted state.

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
  | Warm_stage
      (** every mid-end pass reused; only (a suffix of) the back end ran *)
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
  r_area : Roccc_fpga.Area.estimate;  (** the design's metrics *)
  r_slices : int;
  r_clock_mhz : float;
  r_latch_bits : int;
      (** [r_slices], [r_clock_mhz] and [r_latch_bits] copy [r_area]'s
          fields for the benchmark harness ([perfbench/]), which reads
          them; nothing else should. *)
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
          parallelism and the job count ({!Pool.effective_workers}) *)
  rp_cache : Cache.stats option;
}

val run_chain :
  ?cache:Cache.t ->
  config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  tid:int ->
  job ->
  Roccc_core.Pass.state * origin
(** Run every pass the job executes, resuming from the cached states
    as {!compile_cached} does and storing each newly computed mid-end
    state (never a back-end state). Returns the final state and
    where its mid end came from. The process-network planner uses this
    to share per-kernel work between network and single-kernel
    compiles. *)

val compile_cached :
  ?cache:Cache.t ->
  ?share_back_end:bool ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?tid:int ->
  job ->
  success
(** Compile one job, consulting the cache — the finished artifact, then
    the chained states — and tracing each pass (reused passes appear
    with a [cached] argument and zero duration). [config] enables IR
    verification / differential checks and dumps; the job's options say
    which passes run.

    On an artifact miss it walks the passes forward once, probing and
    storing only the states it keeps: every mid-end state and, with
    [share_back_end] (default [false]), each back-end state where
    another job's chain can leave this one — before a pass that reads an
    option (the clock target at [pipelining], the bus width at
    [area-estimation]) and before the VHDL layer, where
    {!measure_cached}'s chain ends. The passes in between are stepped
    lazily, so nothing runs before a later hit, and a compile without
    [share_back_end] probes no back-end key. A search's front points that
    differ only in bus width then generate and lint their VHDL once. With
    [share_back_end] and a cache, the files are rendered once per key of
    the linted state before [area-estimation] (which adds only the
    estimate), and every artifact of that design shares the one physical
    list. [serve] and [batch] leave it off: [serve]'s memory tier never
    evicts, and a kernel's back-end states weigh several times its
    mid-end states. A pass whose [applicable] gate skips it leaves the chain key
    unchanged, so jobs that differ only in what a skipped pass reads
    converge (a loop-free kernel at every unroll factor shares unroll
    1's states).

    Every kept state and rendering is computed under a single flight of
    its key, and so is the execution as a whole, per full fingerprint:
    concurrent requests for the same key collapse to one execution — the
    followers block on the leader's completion and share its cached
    artifact with origin {!Coalesced} and a zero-duration ["coalesced"]
    trace span ({!Cache.stats} counts [flights] and [coalesced] for
    executions only, not states or renderings). Raises
    {!Roccc_core.Driver.Error} on failure. *)

val measure_cached :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?tid:int ->
  job ->
  Roccc_fpga.Area.estimate
(** The design metrics of one job without generating VHDL: the walk of
    {!compile_cached} over every pass but the VHDL layer's, keeping the
    back-end states as [share_back_end] does — the [bit-width-inference]
    state before [pipelining] (the clock target) and the retimed state
    before [area-estimation] (the bus width) — so candidates that share a
    back-end prefix compute it once, and a later {!compile_cached}
    [~share_back_end:true] of the same job resumes from the retimed
    state. The states in between are left out: only a job equal to this
    one could resume from them, and a search's twelve retimed states
    already weigh up to 0.9 MiB. The metrics equal a full compile's.
    Raises {!Roccc_core.Driver.Error}. *)

val run_batch :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?num_domains:int ->
  job list ->
  report
(** Run a batch across up to [num_domains] workers ([<= 0] or omitted:
    {!Pool.resolve}). One kernel's failure does not affect
    the other jobs. *)

val table1_jobs : ?disabled_passes:string list -> unit -> job list
(** The paper's nine Table 1 kernels, with their per-kernel tuned options
    and [disabled_passes]. *)

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

val trace_meta : report -> (string * Trace.arg) list
(** Batch-level metadata for {!Trace.to_chrome_json}'s [meta] object. *)
