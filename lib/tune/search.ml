(* The search over the unroll x bus x target-ns grid: exact
   estimate-only costing on every point, full VHDL generation on the
   Pareto front only. Both share one content-addressed pass cache whose
   chained states are each computed once under a single flight, so every
   distinct state of the pipeline is computed once per search no matter
   how many candidates, on however many workers, revisit it. *)

module Driver = Roccc_core.Driver
module Service = Roccc_service.Service
module Scheduler = Roccc_service.Scheduler
module Cache = Roccc_service.Cache
module Trace = Roccc_service.Trace
module Delay = Roccc_datapath.Delay

type space = {
  sp_unroll : int list;
  sp_bus : int list;
  sp_target_ns : float list;
  sp_stage_budget : int list;
  sp_decomp : Delay.decomp list;
}

let dedupe (xs : 'a list) : 'a list =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let default_space =
  { sp_unroll = [ 1; 2; 4; 8 ];
    sp_bus = [ 1; 2; 4 ];
    sp_target_ns = [ 3.0; 5.0; 8.0 ];
    sp_stage_budget = [ Delay.default_stage_budget ];
    sp_decomp = [ Delay.default_decomp ] }

type candidate = {
  cd_unroll : int;
  cd_bus : int;
  cd_target_ns : float;
  cd_stage_budget : int;
  cd_decomp : Delay.decomp;
}

type status =
  | On_front
  | Dominated
  | Infeasible
  | Failed of string

type row = {
  rw_cand : candidate;
  rw_label : string;
  rw_status : status;
  rw_measure : Driver.measurement option;
}

type settings = {
  st_objective : Objective.t;
  st_space : space;
  st_domains : int;
  st_base : Driver.options;
}

let default_settings (obj : Objective.t) : settings =
  { st_objective = obj;
    st_space = default_space;
    st_domains = 0;
    st_base = Driver.default_options }

type result = {
  res_entry : string;
  res_objective : Objective.t;
  res_space : space;
  res_rows : row list;
  res_front : (row * Service.success) list;
  res_explored : int;
  res_quick_evals : int;
  res_estimate_evals : int;
  res_full_evals : int;
  res_workers : int;
  res_wall_s : float;
  res_cache : Cache.stats option;
}

let candidates (s : space) : candidate list =
  let us = dedupe s.sp_unroll
  and bs = dedupe s.sp_bus
  and ts = dedupe s.sp_target_ns
  and sbs = dedupe s.sp_stage_budget
  and dcs = dedupe s.sp_decomp in
  List.concat_map
    (fun u ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun t ->
              List.concat_map
                (fun sb ->
                  List.map
                    (fun dc ->
                      { cd_unroll = u;
                        cd_bus = b;
                        cd_target_ns = t;
                        cd_stage_budget = sb;
                        cd_decomp = dc })
                    dcs)
                sbs)
            ts)
        bs)
    us

(* Non-default wide-operator axes append label suffixes; the common
   single-cycle-only grid keeps its historical labels. *)
let label_of ~(entry : string) (c : candidate) : string =
  let base =
    Printf.sprintf "%s.u%d.b%d.t%g" entry c.cd_unroll c.cd_bus c.cd_target_ns
  in
  let base =
    if c.cd_stage_budget <> Delay.default_stage_budget then
      Printf.sprintf "%s.sb%d" base c.cd_stage_budget
    else base
  in
  if c.cd_decomp <> Delay.default_decomp then
    Printf.sprintf "%s.%s" base (Delay.decomp_name c.cd_decomp)
  else base

let options_of (st : settings) (c : candidate) : Driver.options =
  { st.st_base with
    Driver.unroll_outer_factor = c.cd_unroll;
    bus_elements = c.cd_bus;
    target_ns = c.cd_target_ns;
    stage_budget = c.cd_stage_budget;
    decomp = c.cd_decomp }

let run ?cache ?trace ?config ?(luts = []) (st : settings) ~(source : string)
    ~(entry : string) : result =
  let t_start = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let cands = Array.of_list (candidates st.st_space) in
  let n = Array.length cands in
  let labels = Array.map (fun c -> label_of ~entry c) cands in
  let jobs =
    Array.mapi
      (fun i c ->
        { Service.label = labels.(i);
          source;
          entry;
          options = options_of st c;
          luts })
      cands
  in
  let span ~tid ~t0 name tier =
    match trace with
    | None -> ()
    | Some tr ->
        Trace.add_span tr ~cat:"tune"
          ~args:[ ("tier", Trace.Str tier) ]
          ~tid ~name ~start_s:t0
          ~dur_s:(Unix.gettimeofday () -. t0)
          ()
  in
  let status = Array.make n (Failed "not evaluated") in
  let meas : Driver.measurement option array = Array.make n None in

  (* [f] on each index across the workers, results in index order *)
  let eval ~f idxs =
    let res =
      Scheduler.parallel_map ~num_domains:st.st_domains
        ~describe_error:Service.describe_error ~f (Array.of_list idxs)
    in
    List.mapi (fun k i -> (i, res.(k))) idxs
  in

  (* Exact estimate-only costing (identical metrics to a full compile,
     minus the VHDL) on every grid point; it stores the retimed states,
     so the full compiles below resume from them. *)
  let est_results =
    eval
      ~f:(fun ~tid i ->
        let t0 = Unix.gettimeofday () in
        let m = Service.measure_cached ~cache ?config ?trace ~tid jobs.(i) in
        span ~tid ~t0 ("estimate:" ^ labels.(i)) "estimate";
        m)
      (List.init n Fun.id)
  in
  let estimate_evals = List.length est_results in
  let exact =
    List.filter_map
      (fun (i, r) ->
        match r with
        | Ok m ->
            meas.(i) <- Some m;
            Some (i, Pareto.of_measurement m)
        | Error msg ->
            status.(i) <- Failed msg;
            None)
      est_results
  in
  let feasible =
    List.filter
      (fun (i, m) ->
        if Objective.feasible st.st_objective m then true
        else begin
          status.(i) <- Infeasible;
          false
        end)
      exact
  in
  let front_pts = Pareto.front feasible in
  let front_idx = List.map fst front_pts in
  List.iter
    (fun (i, _) ->
      status.(i) <- (if List.mem i front_idx then On_front else Dominated))
    feasible;

  (* Full compiles (VHDL generation + lint) on the front only: every
     retimed state is already cached, and each compile stores its linted
     design, so points that differ only in bus width lint it once. *)
  let full_results =
    eval
      ~f:(fun ~tid i ->
        let t0 = Unix.gettimeofday () in
        let s =
          Service.compile_cached ~cache ~share_back_end:true ?config ?trace
            ~tid jobs.(i)
        in
        span ~tid ~t0 ("full:" ^ labels.(i)) "full";
        s)
      front_idx
  in
  let full_evals = List.length full_results in
  let successes =
    List.filter_map
      (fun (i, r) ->
        match r with
        | Ok s -> Some (i, s)
        | Error msg ->
            status.(i) <- Failed msg;
            None)
      full_results
  in

  let rows_arr =
    Array.init n (fun i ->
        { rw_cand = cands.(i);
          rw_label = labels.(i);
          rw_status = status.(i);
          rw_measure = meas.(i) })
  in
  let fitness_of i =
    match meas.(i) with
    | Some m -> Objective.fitness st.st_objective (Pareto.of_measurement m)
    | None -> neg_infinity
  in
  let front =
    successes
    |> List.sort (fun (i, _) (j, _) ->
           let fi = fitness_of i and fj = fitness_of j in
           if fi <> fj then compare fj fi
           else
             compare
               ( cands.(i).cd_unroll, cands.(i).cd_bus, cands.(i).cd_target_ns,
                 cands.(i).cd_stage_budget,
                 Delay.decomp_name cands.(i).cd_decomp )
               ( cands.(j).cd_unroll, cands.(j).cd_bus, cands.(j).cd_target_ns,
                 cands.(j).cd_stage_budget,
                 Delay.decomp_name cands.(j).cd_decomp ))
    |> List.map (fun (i, s) -> (rows_arr.(i), s))
  in
  { res_entry = entry;
    res_objective = st.st_objective;
    res_space = st.st_space;
    res_rows = Array.to_list rows_arr;
    res_front = front;
    res_explored = n;
    res_quick_evals = 0;
    res_estimate_evals = estimate_evals;
    res_full_evals = full_evals;
    res_workers = Scheduler.effective_workers ~num_domains:st.st_domains n;
    res_wall_s = Unix.gettimeofday () -. t_start;
    res_cache = Some (Cache.stats cache) }

let status_name = function
  | On_front -> "front"
  | Dominated -> "dominated"
  | Infeasible -> "infeasible"
  | Failed _ -> "failed"

let status_detail = function
  | Failed r -> Some r
  | On_front | Dominated | Infeasible -> None

let count_status (r : result) (name : string) : int =
  List.length
    (List.filter (fun rw -> status_name rw.rw_status = name) r.res_rows)

let table (r : result) : string =
  let b = Buffer.create 2048 in
  Printf.bprintf b "tune %s — %s\n" r.res_entry
    (Objective.describe r.res_objective);
  let ints xs = String.concat "," (List.map string_of_int (dedupe xs)) in
  let floats xs =
    String.concat "," (List.map (Printf.sprintf "%g") (dedupe xs))
  in
  let wide_axes =
    if
      List.length (dedupe r.res_space.sp_stage_budget) > 1
      || List.length (dedupe r.res_space.sp_decomp) > 1
      || r.res_space.sp_stage_budget <> [ Delay.default_stage_budget ]
      || r.res_space.sp_decomp <> [ Delay.default_decomp ]
    then
      Printf.sprintf " x stage-budget {%s} x decomp {%s}"
        (ints r.res_space.sp_stage_budget)
        (String.concat ","
           (List.map Delay.decomp_name (dedupe r.res_space.sp_decomp)))
    else ""
  in
  Printf.bprintf b
    "space: unroll {%s} x bus {%s} x target-ns {%s}%s = %d candidates\n\n"
    (ints r.res_space.sp_unroll)
    (ints r.res_space.sp_bus)
    (floats r.res_space.sp_target_ns)
    wide_axes r.res_explored;
  Printf.bprintf b "  %-3s %-20s %6s %4s %6s %10s %8s %10s %8s\n" "#" "label"
    "unroll" "bus" "t_ns" "clock MHz" "slices" "latch bits" "out/cyc";
  List.iteri
    (fun k ((rw : row), (_ : Service.success)) ->
      let m = Option.get rw.rw_measure in
      Printf.bprintf b "  %-3d %-20s %6d %4d %6g %10.2f %8d %10d %8d\n" (k + 1)
        rw.rw_label rw.rw_cand.cd_unroll rw.rw_cand.cd_bus
        rw.rw_cand.cd_target_ns m.Driver.ms_clock_mhz m.Driver.ms_slices
        m.Driver.ms_latch_bits m.Driver.ms_outputs_per_cycle)
    r.res_front;
  Printf.bprintf b
    "\nexplored %d | estimate %d | full %d (exhaustive: %d) | dominated %d \
     | infeasible %d | failed %d\n"
    r.res_explored r.res_estimate_evals r.res_full_evals r.res_explored
    (count_status r "dominated") (count_status r "infeasible")
    (count_status r "failed");
  (match r.res_cache with
  | Some c ->
      Printf.bprintf b
        "cache: %d hits, %d misses, %d stores (%d contended)\n"
        c.Cache.hits c.Cache.misses c.Cache.stores c.Cache.contended
  | None -> ());
  Printf.bprintf b "wall %.3f s on %d worker%s\n" r.res_wall_s r.res_workers
    (if r.res_workers = 1 then "" else "s");
  Buffer.contents b

let to_json (r : result) : string =
  let b = Buffer.create 4096 in
  let str s = Printf.sprintf "\"%s\"" (Trace.escape s) in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"entry\": %s,\n" (str r.res_entry);
  Printf.bprintf b "  \"objective\": %s,\n"
    (str (Objective.name r.res_objective));
  Printf.bprintf b "  \"constraint\": %s,\n"
    (str (Objective.describe r.res_objective));
  let ints xs = String.concat ", " (List.map string_of_int (dedupe xs)) in
  let floats xs =
    String.concat ", " (List.map (Printf.sprintf "%g") (dedupe xs))
  in
  Printf.bprintf b
    "  \"space\": { \"unroll\": [%s], \"bus\": [%s], \"target_ns\": [%s], \
     \"stage_budget\": [%s], \"decomp\": [%s] },\n"
    (ints r.res_space.sp_unroll)
    (ints r.res_space.sp_bus)
    (floats r.res_space.sp_target_ns)
    (ints r.res_space.sp_stage_budget)
    (String.concat ", "
       (List.map
          (fun d -> str (Delay.decomp_name d))
          (dedupe r.res_space.sp_decomp)));
  Printf.bprintf b "  \"explored\": %d,\n" r.res_explored;
  Printf.bprintf b "  \"estimate_evals\": %d,\n" r.res_estimate_evals;
  Printf.bprintf b "  \"full_evals\": %d,\n" r.res_full_evals;
  Printf.bprintf b "  \"exhaustive_full_evals\": %d,\n" r.res_explored;
  Printf.bprintf b "  \"pruning_ok\": %b,\n" (r.res_full_evals < r.res_explored);
  Printf.bprintf b
    "  \"counts\": { \"front\": %d, \"dominated\": %d, \"infeasible\": %d, \
     \"failed\": %d },\n"
    (count_status r "front") (count_status r "dominated")
    (count_status r "infeasible") (count_status r "failed");
  Printf.bprintf b "  \"front_size\": %d,\n" (List.length r.res_front);
  Printf.bprintf b "  \"workers\": %d,\n" r.res_workers;
  Printf.bprintf b "  \"wall_s\": %.6f,\n" r.res_wall_s;
  (match r.res_cache with
  | Some c ->
      Printf.bprintf b
        "  \"cache\": { \"hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
         \"stores\": %d, \"contended\": %d },\n"
        c.Cache.hits c.Cache.disk_hits c.Cache.misses c.Cache.stores
        c.Cache.contended
  | None -> Printf.bprintf b "  \"cache\": null,\n");
  let front_items =
    List.map
      (fun ((rw : row), (_ : Service.success)) ->
        let m = Option.get rw.rw_measure in
        let fitness =
          Objective.fitness r.res_objective (Pareto.of_measurement m)
        in
        Printf.sprintf
          "    { \"label\": %s, \"unroll\": %d, \"bus\": %d, \"target_ns\": \
           %g, \"stage_budget\": %d, \"decomp\": %s, \"clock_mhz\": %g, \
           \"slices\": %d, \"operator_slices\": %d, \
           \"latency\": %d, \"latch_bits\": %d, \"greedy_latch_bits\": %d, \
           \"outputs_per_cycle\": %d, \"fitness\": %g }"
          (str rw.rw_label) rw.rw_cand.cd_unroll rw.rw_cand.cd_bus
          rw.rw_cand.cd_target_ns rw.rw_cand.cd_stage_budget
          (str (Delay.decomp_name rw.rw_cand.cd_decomp))
          m.Driver.ms_clock_mhz m.Driver.ms_slices
          m.Driver.ms_operator_slices m.Driver.ms_latency m.Driver.ms_latch_bits
          m.Driver.ms_greedy_latch_bits m.Driver.ms_outputs_per_cycle fitness)
      r.res_front
  in
  Printf.bprintf b "  \"front\": [\n%s\n  ],\n" (String.concat ",\n" front_items);
  let row_items =
    List.map
      (fun (rw : row) ->
        let extra =
          match rw.rw_measure with
          | Some m ->
              Printf.sprintf
                ", \"slices\": %d, \"clock_mhz\": %g, \"latch_bits\": %d"
                m.Driver.ms_slices m.Driver.ms_clock_mhz m.Driver.ms_latch_bits
          | None -> ""
        in
        let detail =
          match status_detail rw.rw_status with
          | Some d -> Printf.sprintf ", \"detail\": %s" (str d)
          | None -> ""
        in
        Printf.sprintf
          "    { \"label\": %s, \"unroll\": %d, \"bus\": %d, \"target_ns\": \
           %g, \"stage_budget\": %d, \"decomp\": %s, \"status\": %s%s%s }"
          (str rw.rw_label) rw.rw_cand.cd_unroll rw.rw_cand.cd_bus
          rw.rw_cand.cd_target_ns rw.rw_cand.cd_stage_budget
          (str (Delay.decomp_name rw.rw_cand.cd_decomp))
          (str (status_name rw.rw_status))
          detail extra)
      r.res_rows
  in
  Printf.bprintf b "  \"rows\": [\n%s\n  ]\n" (String.concat ",\n" row_items);
  Printf.bprintf b "}\n";
  Buffer.contents b
