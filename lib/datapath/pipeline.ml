(** Data-path pipelining (paper §4.2.3): latch placement driven by the
    {!Timing} netlist's per-instruction delay estimation, followed by exact
    min-area retiming: a min-cost flow ({!Flow}) that re-stages the
    instructions with the fewest latch bits at the same stage count, clock
    and pins.

    Two invariants are preserved throughout: every SNX gets a latch feeding
    its LPR, and each LPR-to-SNX feedback path stays within a single stage
    so the pipeline accepts one iteration per cycle ("each pipeline stage is
    an instance of single iteration in the for-loop body"). *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc
module Diag = Roccc_util.Diag

(** Default combinational budget per stage, in nanoseconds. *)
let default_target_ns = 5.0

type staged_instr = {
  si : Instr.instr;
  si_node : int;       (** owning data-path node id *)
  mutable stage : int; (** start stage of the instruction's region *)
  si_delay : float;    (** per-stage combinational delay *)
  si_stages : int;     (** stages occupied: >1 = pinned multi-stage region *)
}

type t = {
  dp : Graph.t;
  widths : Widths.t;
  timing : Timing.t;               (** the timed netlist staged over *)
  instrs : staged_instr list;      (** topological order *)
  stage_count : int;
  stage_delays : float array;      (** worst combinational path per stage *)
  clock_mhz : float;
  latch_bits : int;                (** total pipeline-register bits *)
  greedy_latch_bits : int;         (** latch bits before retiming *)
  retime_moves : int;              (** instructions retiming re-staged *)
  feedback_bits : int;             (** SNX register bits *)
  target_ns : float;
  def_stage : (Instr.vreg, int) Hashtbl.t;
  instr_stage : (Instr.instr, int) Hashtbl.t;
}

let latency (p : t) = p.stage_count

(** Throughput in results per clock: one iteration enters per cycle, so it
    equals the number of outputs the data path produces per iteration. *)
let outputs_per_cycle (p : t) = List.length p.dp.Graph.output_ports

(** Stage where a register's value is produced (0 for external inputs). *)
let stage_of_def (p : t) (r : Instr.vreg) : int =
  Option.value (Hashtbl.find_opt p.def_stage r) ~default:0

(** Stage an instruction executes in (0 for instructions outside the staged
    set). *)
let stage_of_instr (p : t) (i : Instr.instr) : int =
  Option.value (Hashtbl.find_opt p.instr_stage i) ~default:0

(** Latch boundaries operand [r] crosses to reach instruction [i] — the
    delay-chain depth the VHDL generator materializes for this use. *)
let use_delay (p : t) (i : Instr.instr) (r : Instr.vreg) : int =
  max 0 (stage_of_instr p i - stage_of_def p r)

(** All pipeline flip-flop bits this staging implies — latch bits plus the
    SNX feedback registers. The area model charges registers from here.
    (A multi-stage operator's internal pipeline registers are part of the
    latch accounting: its consumers sit at least [si_stages] boundaries
    past its start stage, so the result's delay chain pays them.) *)
let register_bits (p : t) : int = p.latch_bits + p.feedback_bits

(** Pinned multi-stage regions of the staging, as
    [(instr, start_stage, stages)]. Empty for a purely single-cycle data
    path. *)
let staged_regions (p : t) : (Instr.instr * int * int) list =
  List.filter_map
    (fun si ->
      if si.si_stages > 1 then Some (si.si, si.stage, si.si_stages) else None)
    p.instrs

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Stage assignments live in an array indexed by [ti_index] while under
   construction; [staged_instr] is materialized at the end. *)

let stage_count_of (tm : Timing.t) (stages : int array) : int =
  1
  + List.fold_left
      (fun acc (ti : Timing.tinstr) ->
        max acc (stages.(ti.Timing.ti_index) + ti.Timing.ti_stages - 1))
      0 tm.Timing.instrs

(* Feedback sanity: every LPR/SNX pair of each feedback signal must share a
   stage, otherwise the loop would need more than one cycle per iteration. *)
let check_feedback_stages (tm : Timing.t) (stages : int array) : unit =
  List.iter
    (fun (name, _, _) ->
      let op_stages op_match =
        List.filter_map
          (fun (ti : Timing.tinstr) ->
            if op_match ti.Timing.ti.Instr.op then
              Some stages.(ti.Timing.ti_index)
            else None)
          tm.Timing.instrs
      in
      let lpr_stages =
        op_stages (function Instr.Lpr n -> String.equal n name | _ -> false)
      in
      let snx_stages =
        op_stages (function Instr.Snx n -> String.equal n name | _ -> false)
      in
      match lpr_stages, snx_stages with
      | _, [] | [], _ -> ()
      | ls, ss ->
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                if l <> s then
                  Diag.failf "pipelining"
                    "pipeline: feedback %s spans stages %d and %d — the \
                     LPR/SNX loop must fit one stage"
                    name l s)
              ss)
          ls)
    tm.Timing.dp.Graph.proc.Proc.feedbacks

let finalize (tm : Timing.t) (stages : int array) ~(stage_count : int)
    ~(greedy_latch_bits : int) ~(retime_moves : int) : t =
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let instrs =
    List.map
      (fun (ti : Timing.tinstr) ->
        { si = ti.Timing.ti;
          si_node = ti.Timing.ti_node;
          stage = stage_of ti;
          si_delay = ti.Timing.ti_delay;
          si_stages = ti.Timing.ti_stages })
      tm.Timing.instrs
  in
  let stage_delays = Timing.stage_delays tm ~stage_of ~stage_count in
  let worst = Array.fold_left Float.max 0.0 stage_delays in
  let clock_mhz = Delay.clock_mhz_of_stage_delay worst in
  let latch_bits = Timing.latch_bits tm ~stage_of ~stage_count in
  let feedback_bits = Timing.feedback_bits tm in
  let def_stage : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  let instr_stage : (Instr.instr, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      Hashtbl.replace instr_stage si.si si.stage;
      match si.si.Instr.dst with
      | Some d -> Hashtbl.replace def_stage d si.stage
      | None -> ())
    instrs;
  { dp = tm.Timing.dp;
    widths = tm.Timing.widths;
    timing = tm;
    instrs;
    stage_count;
    stage_delays;
    clock_mhz;
    latch_bits;
    greedy_latch_bits;
    retime_moves;
    feedback_bits;
    target_ns = tm.Timing.target_ns;
    def_stage;
    instr_stage }

(* ---- exact min-area retiming ----
   With the stage count, the clock budget and the pins held fixed, the
   stage assignment that minimises {!Timing.latch_bits} (Leiserson–Saxe's
   fanout-sharing register count) is a linear program over difference
   constraints, solved exactly by {!Flow}. Variables: a stage r per
   instruction, a furthest-use stage m per register with a latch chain, and
   a zero node for stage 0. The objective is
   sum width(reg) * (m_reg - r_producer), with external inputs defined at
   stage 0. Constraints:
   - dependence: r_c - r_p >= region_span p, or >= 1 when c is a
     multi-stage consumer (its operands are latched at its entry);
   - uses: m_reg >= r_c for every reader c; output-port registers carry to
     the final boundary, m_reg >= stages;
   - bounds: 0 <= r <= stages - ti_stages;
   - pins: LPR/SNX instructions, feedback-path members and multi-stage
     regions keep their stage;
   - clock: r_v - r_u >= 1 for the first violators of the budget (see
     {!clock_pairs}). *)

(* Instructions retiming never moves: LPR/SNX, every member of a feedback
   path (the LPR-to-SNX loop must fit one stage) and every multi-stage
   region. Indexed by [ti_index]. *)
let pinned (tm : Timing.t) : bool array =
  let pin = Array.make (List.length tm.Timing.instrs) false in
  List.iter
    (fun (ti : Timing.tinstr) ->
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ | Instr.Snx _ -> pin.(ti.Timing.ti_index) <- true
      | _ -> if ti.Timing.ti_stages > 1 then pin.(ti.Timing.ti_index) <- true)
    tm.Timing.instrs;
  List.iter
    (fun (_, members) ->
      List.iter
        (fun (ti : Timing.tinstr) -> pin.(ti.Timing.ti_index) <- true)
        members)
    (Timing.feedback_paths tm);
  pin

(* The clock as difference constraints. Stages are monotone along every
   dependence path, so a stage's delay is the longest chain of single-cycle
   instructions that all sit in it. With D(u,v) the delay of the longest
   single-cycle chain from u to v (both ends counted, summed in the order
   {!Timing.stage_delays} sums them), the worst stage delay stays within
   [budget] exactly when r_v - r_u >= 1 for every pair with
   D(u,v) > budget. Two kinds of pair are implied by others and dropped:
   - v is not the first violator: some single-cycle predecessor p of v has
     D(u,p) > budget, so r_p - r_u >= 1 and r_v >= r_p;
   - u has zero delay: D(u,v) = D(s,v) exactly for the successor s on the
     longest chain, so r_v - r_s >= 1 and r_s >= r_u.
   [preds] lists each single-cycle instruction's single-cycle producers. *)
let clock_pairs (tis : Timing.tinstr array) (preds : int array array)
    ~(budget : float) : (int * int) list =
  let n = Array.length tis in
  (* successors of each instruction in compressed rows, ascending *)
  let first = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun p -> first.(p + 1) <- first.(p + 1) + 1)) preds;
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v + 1) + first.(v)
  done;
  let succ = Array.make first.(n) 0 in
  let fill = Array.sub first 0 n in
  Array.iteri
    (fun v ps ->
      Array.iter
        (fun p ->
          succ.(fill.(p)) <- v;
          fill.(p) <- fill.(p) + 1)
        ps)
    preds;
  (* per source u, pushed forward in index (topological) order:
     [reached.(v) = u] once a chain from u reaches v, [arrive.(v)] the
     longest within-budget chain into it, [over.(v)] when some chain into
     it has already run past the budget *)
  let reached = Array.make n (-1) in
  let arrive = Array.make n 0.0 in
  let over = Array.make n false in
  let reach u p d =
    for i = first.(p) to first.(p + 1) - 1 do
      let v = succ.(i) in
      if reached.(v) <> u then begin
        reached.(v) <- u;
        arrive.(v) <- d;
        over.(v) <- false
      end
      else if d > arrive.(v) then arrive.(v) <- d
    done
  in
  let spoil u p =
    for i = first.(p) to first.(p + 1) - 1 do
      let v = succ.(i) in
      reached.(v) <- u;
      over.(v) <- true
    done
  in
  (* the scan from u stops past the last successor of a within-budget
     node: later instructions are out of reach, or reached only through
     chains already over the budget *)
  let last_succ p h =
    if first.(p + 1) > first.(p) then max h succ.(first.(p + 1) - 1) else h
  in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    if tis.(u).Timing.ti_stages = 1 && tis.(u).Timing.ti_delay > 0.0 then begin
      reach u u tis.(u).Timing.ti_delay;
      let last = ref (last_succ u (-1)) and v = ref (u + 1) in
      while !v <= !last do
        let w = !v in
        if reached.(w) = u then
          if over.(w) then spoil u w
          else begin
            let d = arrive.(w) +. tis.(w).Timing.ti_delay in
            if d > budget +. 1e-9 then begin
              pairs := (u, w) :: !pairs;
              spoil u w
            end
            else begin
              reach u w d;
              last := last_succ w !last
            end
          end;
        incr v
      done
    end
  done;
  List.rev !pairs

(* The latch-minimal stage assignment at [stage_count] stages and worst
   stage delay [budget], pins read from the feasible [stages]. Returns the
   new stages and the optimal latch bits.

   Two reductions keep the flow network small. A register with a single
   reader c that is not an output port needs no furthest-use variable:
   its chain is r_c - r_producer, charged straight onto the two stages.
   And a stage bound is only stated for an instruction with no dependence
   arc on that side, since the arcs carry the bound on from the neighbour
   (likewise m_reg >= r_producer is implied by any reader). *)
let exact_stages (tm : Timing.t) (stages : int array) ~(stage_count : int)
    ~(budget : float) : int array * int =
  let tis = Array.of_list tm.Timing.instrs in
  let n = Array.length tis in
  let pin = pinned tm in
  let zero = n in
  let ports = tm.Timing.dp.Graph.output_ports in
  (* registers are small integers: per-register facts live in arrays *)
  let regs = ref (-1) in
  Array.iter
    (fun (ti : Timing.tinstr) ->
      Option.iter (fun d -> regs := max !regs d) ti.Timing.ti.Instr.dst;
      List.iter (fun r -> regs := max !regs r) ti.Timing.ti.Instr.srcs)
    tis;
  List.iter (fun (p : Proc.port) -> regs := max !regs p.Proc.port_reg) ports;
  let regs = !regs + 1 in
  let def = Array.make regs zero in
  Array.iter
    (fun (ti : Timing.tinstr) ->
      Option.iter (fun d -> def.(d) <- ti.Timing.ti_index) ti.Timing.ti.Instr.dst)
    tis;
  let output = Array.make regs false in
  List.iter (fun (p : Proc.port) -> output.(p.Proc.port_reg) <- true) ports;
  (* distinct readers per register: how many, and the last one *)
  let readers = Array.make regs 0 and reader = Array.make regs (-1) in
  Array.iter
    (fun (ti : Timing.tinstr) ->
      List.iter
        (fun r ->
          if reader.(r) <> ti.Timing.ti_index then begin
            reader.(r) <- ti.Timing.ti_index;
            readers.(r) <- readers.(r) + 1
          end)
        ti.Timing.ti.Instr.srcs)
    tis;
  (* furthest-use variables after the instructions and the zero node *)
  let var = Array.make regs (-1) in
  let nvars = ref (n + 1) in
  for r = 0 to regs - 1 do
    if readers.(r) >= 2 || output.(r) then begin
      var.(r) <- !nvars;
      incr nvars
    end
  done;
  let weight = Array.make !nvars 0 in
  for r = 0 to regs - 1 do
    if readers.(r) > 0 || output.(r) then begin
      let w = Timing.reg_width tm r in
      weight.(def.(r)) <- weight.(def.(r)) - w;
      let m = if var.(r) >= 0 then var.(r) else reader.(r) in
      weight.(m) <- weight.(m) + w
    end
  done;
  let cons = ref [] in
  let add tail head lower = cons := (tail, head, lower) :: !cons in
  (* uses and dependences; [seen] drops repeated operands *)
  let seen = Array.make regs (-1) in
  let has_pred = Array.make n false and has_succ = Array.make n false in
  let preds = Array.make n [||] in
  Array.iter
    (fun (c : Timing.tinstr) ->
      let ci = c.Timing.ti_index in
      let entry = if c.Timing.ti_stages > 1 then 1 else 0 in
      let chained = ref [] in
      List.iter
        (fun r ->
          if seen.(r) <> ci then begin
            seen.(r) <- ci;
            if var.(r) >= 0 then add ci var.(r) 0;
            let pi = def.(r) in
            match c.Timing.ti.Instr.op with
            | Instr.Lpr _ -> ()  (* reads the feedback register, not a wire *)
            | _ when pi = zero -> ()
            | _ ->
              let p = tis.(pi) in
              if not (pin.(pi) && pin.(ci)) then begin
                add pi ci (max (Timing.region_span p) entry);
                has_succ.(pi) <- true;
                has_pred.(ci) <- true
              end;
              if p.Timing.ti_stages = 1 then chained := pi :: !chained
          end)
        c.Timing.ti.Instr.srcs;
      if c.Timing.ti_stages = 1 then preds.(ci) <- Array.of_list !chained)
    tis;
  List.iter
    (fun (p : Proc.port) -> add zero var.(p.Proc.port_reg) stage_count)
    ports;
  Array.iter
    (fun (ti : Timing.tinstr) ->
      let i = ti.Timing.ti_index in
      if pin.(i) then begin
        add zero i stages.(i);
        add i zero (-stages.(i))
      end
      else begin
        if not has_pred.(i) then add zero i 0;
        if not has_succ.(i) then
          add i zero (-(stage_count - ti.Timing.ti_stages))
      end)
    tis;
  List.iter
    (fun (u, v) -> if not (pin.(u) && pin.(v)) then add u v 1)
    (clock_pairs tis preds ~budget);
  let cons = Array.of_list !cons in
  let sol =
    try
      Flow.solve ~weight
        ~tail:(Array.map (fun (t, _, _) -> t) cons)
        ~head:(Array.map (fun (_, h, _) -> h) cons)
        ~lower:(Array.map (fun (_, _, l) -> l) cons)
    with Diag.Error { where = "flow"; msg; _ } ->
      Diag.failf "pipelining" "retiming: %s" msg
  in
  Array.init n (fun i -> sol.Flow.x.(i) - sol.Flow.x.(zero)), sol.Flow.objective

(** Exact min-area retiming of a staged pipeline: the stage assignment with
    the fewest latch bits at the same stage count, worst stage delay and
    pins. A pipeline that is already optimal comes back unchanged. *)
let retime (p : t) : t =
  let stages = Array.of_list (List.map (fun si -> si.stage) p.instrs) in
  let budget = Array.fold_left Float.max 0.0 p.stage_delays in
  let out, optimum =
    exact_stages p.timing stages ~stage_count:p.stage_count ~budget
  in
  if optimum > p.latch_bits then
    Diag.failf "pipelining"
      "retiming: optimum %d latch bits exceeds the feasible start's %d"
      optimum p.latch_bits;
  if optimum = p.latch_bits then p
  else begin
    let moves = ref 0 in
    Array.iteri (fun i s -> if s <> stages.(i) then incr moves) out;
    let q =
      finalize p.timing out ~stage_count:p.stage_count
        ~greedy_latch_bits:p.greedy_latch_bits
        ~retime_moves:(p.retime_moves + !moves)
    in
    (* the recovered stages must realise the flow's optimum *)
    if q.latch_bits <> optimum then
      Diag.failf "pipelining"
        "retiming: recovered stages imply %d latch bits, the optimum is %d"
        q.latch_bits optimum;
    q
  end

let build ?(target_ns = default_target_ns) ?stage_budget ?decomp
    ?retime:(exact = true) (dp : Graph.t) (widths : Widths.t) : t =
  let tm = Timing.build ~target_ns ?stage_budget ?decomp dp widths in
  let n = List.length tm.Timing.instrs in
  let stages = Array.make (max 1 n) 0 in
  (* ---- pass 1: the ASAP levels of the timed netlist ---- *)
  List.iter
    (fun (ti : Timing.tinstr) -> stages.(ti.Timing.ti_index) <- ti.Timing.asap)
    tm.Timing.instrs;
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  (* ---- pass 2: feedback paths collapse onto one stage ---- *)
  List.iter
    (fun (name, members) ->
      List.iter
        (fun (ti : Timing.tinstr) ->
          if ti.Timing.ti_stages > 1 then
            Diag.failf "pipelining"
              "pipeline: feedback %s runs through a %d-stage operator — a \
               multi-stage region cannot fit the single-stage LPR/SNX loop"
              name ti.Timing.ti_stages)
        members;
      let s_star =
        List.fold_left (fun acc ti -> max acc (stage_of ti)) 0 members
      in
      List.iter
        (fun (ti : Timing.tinstr) -> stages.(ti.Timing.ti_index) <- s_star)
        members)
    (Timing.feedback_paths tm);
  (* ---- pass 3: forward monotonicity fixup ---- *)
  List.iter
    (fun (ti : Timing.tinstr) ->
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ -> ()  (* reads the previous iteration's register *)
      | _ ->
        let entry = if ti.Timing.ti_stages > 1 then 1 else 0 in
        let m =
          List.fold_left
            (fun acc r ->
              match Hashtbl.find_opt tm.Timing.producer r with
              | Some p ->
                (* past the producer's region; staged consumers one
                   boundary further (operands latched at entry) *)
                max acc
                  (stage_of p
                  + max (Timing.region_span p) entry)
              | None -> acc)
            (stage_of ti) ti.Timing.ti.Instr.srcs
        in
        stages.(ti.Timing.ti_index) <- m)
    tm.Timing.instrs;
  check_feedback_stages tm stages;
  let stage_count = stage_count_of tm stages in
  let greedy =
    finalize tm stages ~stage_count ~greedy_latch_bits:0 ~retime_moves:0
  in
  let greedy = { greedy with greedy_latch_bits = greedy.latch_bits } in
  if exact then retime greedy else greedy

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let describe (p : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "pipeline %s: %d stage(s), clock %.1f MHz, %d latch bits, %d feedback \
        bits\n"
       p.dp.Graph.proc.Proc.pname p.stage_count p.clock_mhz p.latch_bits
       p.feedback_bits);
  if p.retime_moves > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  retiming: %d move(s), %d -> %d latch bits\n"
         p.retime_moves p.greedy_latch_bits p.latch_bits);
  List.iter
    (fun (i, start, k) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  pinned region: %s over stages %d..%d (%d stages)\n"
           (Instr.opcode_name i.Instr.op) start (start + k - 1) k))
    (staged_regions p);
  Array.iteri
    (fun s d ->
      let count = List.length (List.filter (fun si -> si.stage = s) p.instrs) in
      Buffer.add_string buf
        (Printf.sprintf "  stage %d: %d instr(s), %.2f ns\n" s count d))
    p.stage_delays;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(** Invariants of a staged pipeline: every data-path instruction is staged
    exactly once, stages lie in [0, stage_count), dataflow is forward (a
    producer's stage never exceeds its consumer's, LPRs excepted — they read
    the previous iteration), each feedback's LPR/SNX pair shares one stage,
    and the recorded latch/feedback bit counts balance against an independent
    recomputation from the stage assignment. Raises {!Roccc_util.Diag.Error}. *)
let verify (p : t) : unit =
  let n_staged = List.length p.instrs in
  let n_graph = Graph.instr_count p.dp in
  if n_staged <> n_graph then
    Diag.failf "pipelining"
      "pipeline: %d staged instruction(s) but the data path has %d"
      n_staged n_graph;
  if Array.length p.stage_delays <> p.stage_count then
    Diag.failf "pipelining" "pipeline: %d stage delay(s) for %d stage(s)"
      (Array.length p.stage_delays) p.stage_count;
  List.iter
    (fun si ->
      if si.stage < 0 || si.stage >= p.stage_count then
        Diag.failf "pipelining"
          "pipeline: instruction staged at %d outside [0,%d)" si.stage
          p.stage_count;
      if si.si_stages > 1 && si.stage + si.si_stages > p.stage_count then
        Diag.failf "pipelining"
          "pipeline: %d-stage region starting at %d overruns the %d-stage \
           schedule"
          si.si_stages si.stage p.stage_count)
    p.instrs;
  let producer : (Instr.vreg, staged_instr) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      match si.si.Instr.dst with
      | Some d -> Hashtbl.replace producer d si
      | None -> ())
    p.instrs;
  List.iter
    (fun si ->
      match si.si.Instr.op with
      | Instr.Lpr _ -> ()  (* reads the feedback register, not a wire *)
      | _ ->
        List.iter
          (fun r ->
            match Hashtbl.find_opt producer r with
            | Some prod ->
              (* earliest stage this consumer may occupy: a multi-stage
                 producer's result exists only past its region exit
                 register; a multi-stage consumer latches its operands at
                 the region entry boundary, so single-cycle producers must
                 finish a stage earlier *)
              let min_stage =
                if prod.si_stages > 1 then prod.stage + prod.si_stages
                else prod.stage + if si.si_stages > 1 then 1 else 0
              in
              if si.stage < min_stage then
                if prod.si_stages > 1 then
                  Diag.failf "pipelining"
                    "pipeline: value v%d consumed at stage %d inside or \
                     before its producer's pinned region (stages %d..%d)"
                    r si.stage prod.stage
                    (prod.stage + prod.si_stages - 1)
                else
                  Diag.failf "pipelining"
                    "pipeline: value v%d produced at stage %d but consumed \
                     at stage %d"
                    r prod.stage si.stage
            | None -> ())
          si.si.Instr.srcs)
    p.instrs;
  List.iter
    (fun (name, _, _) ->
      let stages op_match =
        List.filter_map
          (fun si ->
            match si.si.Instr.op with
            | op when op_match op -> Some si.stage
            | _ -> None)
          p.instrs
      in
      let lpr_stages =
        stages (function Instr.Lpr n -> String.equal n name | _ -> false)
      in
      let snx_stages =
        stages (function Instr.Snx n -> String.equal n name | _ -> false)
      in
      match lpr_stages, snx_stages with
      | _, [] | [], _ -> ()
      | ls, ss ->
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                if l <> s then
                  Diag.failf "pipelining"
                    "pipeline: feedback %s latched across stages %d and %d"
                    name l s)
              ss)
          ls)
    p.dp.Graph.proc.Proc.feedbacks;
  (* latch balance: recompute register crossings from the stage assignment *)
  let last_use : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      List.iter
        (fun r ->
          let cur = Option.value (Hashtbl.find_opt last_use r) ~default:(-1) in
          if si.stage > cur then Hashtbl.replace last_use r si.stage)
        si.si.Instr.srcs)
    p.instrs;
  List.iter
    (fun (port : Proc.port) ->
      Hashtbl.replace last_use port.Proc.port_reg p.stage_count)
    p.dp.Graph.output_ports;
  let latch_bits =
    Hashtbl.fold
      (fun r use_stage acc ->
        let def_stage =
          match Hashtbl.find_opt producer r with
          | Some prod -> prod.stage
          | None -> 0
        in
        let crossings = max 0 (use_stage - def_stage) in
        acc + (crossings * Timing.reg_width p.timing r))
      last_use 0
  in
  if latch_bits <> p.latch_bits then
    Diag.failf "pipelining"
      "pipeline: latch bits out of balance — recorded %d, stages imply %d"
      p.latch_bits latch_bits;
  let feedback_bits =
    List.fold_left
      (fun acc (_, kind, _) -> acc + kind.Roccc_cfront.Ast.bits)
      0 p.dp.Graph.proc.Proc.feedbacks
  in
  if feedback_bits <> p.feedback_bits then
    Diag.failf "pipelining"
      "pipeline: feedback bits out of balance — recorded %d, expected %d"
      p.feedback_bits feedback_bits
