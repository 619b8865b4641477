(** The autotuner's search driver: enumerate the unroll x bus x
    clock-target grid, cost every point exactly, and pay for full VHDL
    generation on the Pareto front only.

    {ul
    {- {b estimate} — every pass but VHDL generation and linting
       ({!Roccc_service.Service.measure_cached}) on every grid point.
       Its {!Roccc_fpga.Area.estimate} is {e identical} to a full
       compile's, so exact feasibility filtering and Pareto-front
       extraction here cannot drop a true front point.}
    {- {b full} — {!Roccc_service.Service.compile_cached} on the front
       only, producing the VHDL.}}

    Both share one cache of chained per-pass states, each computed once
    per search under a single flight of its key
    ({!Roccc_service.Cache.single_flight}): the mid end and the back end
    through bit-width inference once per distinct mid-end state,
    pipelining and retiming once per (mid-end state, target-ns), area
    estimation once per point. A kernel with no top-level loop skips
    partial unrolling, so all its unroll factors share one mid-end
    state. A front point's full compile resumes from the retimed state
    its estimate stored and stores its linted design, so front points
    that differ only in bus width (or, loop-free, in unroll factor)
    generate and lint their VHDL once.

    Each tier is one pass of the domain scheduler over its candidates.
    Candidates that reach a state another worker is computing wait for
    it instead of computing it again, so the passes that run, and the
    result, are the same at every worker count. *)

type space = {
  sp_unroll : int list;
  sp_bus : int list;
  sp_target_ns : float list;
  sp_stage_budget : int list;
      (** wide-operator stage-budget axis; the default singleton [[0]]
          (natural depth) leaves the historical grid unchanged *)
  sp_decomp : Roccc_datapath.Delay.decomp list;
      (** wide-multiplier decomposition axis; default [[Csa]] *)
}

val default_space : space
(** unroll [1;2;4;8] x bus [1;2;4] x target_ns [3;5;8] ns — 36 points
    (wide-operator axes at their single default values). *)

type candidate = {
  cd_unroll : int;
  cd_bus : int;
  cd_target_ns : float;
  cd_stage_budget : int;
  cd_decomp : Roccc_datapath.Delay.decomp;
}

(** Why a candidate did or did not reach the front. *)
type status =
  | On_front
  | Dominated  (** exact metrics, beaten by a front point *)
  | Infeasible  (** exact metrics violate the objective's constraint *)
  | Failed of string

type row = {
  rw_cand : candidate;
  rw_label : string;
  rw_status : status;
  rw_area : Roccc_fpga.Area.estimate option;
      (** the estimate tier's metrics ({!Roccc_service.Service.measure_cached});
          [None] only for a candidate whose estimate run failed *)
}

type settings = {
  st_objective : Objective.t;
  st_space : space;
  st_domains : int;  (** worker domains; [<= 0] = hardware default *)
  st_base : Roccc_core.Driver.options;  (** every other option field *)
}

val default_settings : Objective.t -> settings

type result = {
  res_entry : string;
  res_objective : Objective.t;
  res_space : space;
  res_rows : row list;  (** every candidate, in grid order *)
  res_front : (row * Roccc_service.Service.success) list;
      (** best fitness first; ties broken by (unroll, bus, target_ns) *)
  res_explored : int;  (** grid size — full compiles an exhaustive
                           search would have paid for *)
  res_quick_evals : int;
      (** always 0: there is no quick costing rung. Kept because the
          benchmark's tune-front workload ([perfbench/workloads.ml])
          reads it. *)
  res_estimate_evals : int;
  res_full_evals : int;
  res_workers : int;
  res_wall_s : float;
  res_cache : Roccc_service.Cache.stats option;
}

val run :
  ?cache:Roccc_service.Cache.t ->
  ?trace:Roccc_service.Trace.t ->
  ?config:Roccc_core.Pass.config ->
  ?luts:Roccc_hir.Lut_conv.table list ->
  settings ->
  source:string ->
  entry:string ->
  result
(** Deterministic for fixed inputs regardless of [st_domains]. Candidate
    evaluations appear in [trace] as [cat "tune"] spans wrapping the
    per-pass spans; reused passes show up as zero-duration spans
    with a [cached] argument. Raises nothing: per-candidate failures are
    recorded as {!Failed} rows. *)

val table : result -> string
(** The rendered front (best first, each point's numbers read off its full
    compile's [r_area]) plus a search summary. *)

val to_json : result -> string
(** The [pareto.json] document: settings, estimate and full evaluation
    counts (the pruning evidence), the front with each full compile's
    [r_area] metrics, and every explored row with its status and
    [rw_area] metrics. *)
