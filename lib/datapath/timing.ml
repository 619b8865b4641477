(** The timed netlist (paper §4.2.3 substrate): every data-path instruction
    annotated with its estimated combinational delay, its producer/consumer
    edges, and its ASAP/ALAP stage levels under a clock-period target of
    [target_ns] nanoseconds of combinational logic per stage.

    This layer owns the timing facts the back half of the compiler shares:
    the pipeliner places and retimes latches over it, the VHDL generator
    derives delay chains from the resulting stage assignment, the hardware
    model takes latency from it, and the area model charges pipeline
    registers from the same latch-bit accounting ({!latch_bits}). *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

type tinstr = {
  ti : Instr.instr;
  ti_node : int;          (** owning data-path node id *)
  ti_index : int;         (** position in the topological order *)
  ti_delay : float;       (** per-stage combinational delay, ns *)
  ti_stages : int;        (** stages occupied: 1 = single-cycle, >1 = a
                              pinned multi-stage region starting at the
                              assigned stage *)
  mutable asap : int;     (** earliest delay-feasible (start) stage *)
  mutable alap : int;     (** latest stage keeping every consumer feasible *)
}

(* A multi-stage instruction occupies stages [stage, stage + ti_stages - 1]
   as one pinned region: operands are latched at the region entry boundary
   and the result is registered at the region exit, so consumers sit at
   [stage + ti_stages] or later and never chain combinationally into or out
   of the region. [region_span] is the extra stage distance the region
   imposes on its consumers (0 for single-cycle instructions, which
   consumers may share a stage with). *)
let region_span (ti : tinstr) : int = if ti.ti_stages > 1 then ti.ti_stages else 0

type t = {
  dp : Graph.t;
  widths : Widths.t;
  target_ns : float;      (** combinational budget per stage, ns *)
  instrs : tinstr list;   (** topological (level, node, program) order *)
  producer : (Instr.vreg, tinstr) Hashtbl.t;
  consumers : (Instr.vreg, tinstr list) Hashtbl.t;
  asap_stage_count : int; (** stages the ASAP schedule occupies *)
}

let mobility (ti : tinstr) : int = max 0 (ti.alap - ti.asap)

(* Physical width of a register: the inferred width, falling back to the
   32-bit C default for registers outside the analyzed set (entry copies of
   unused ports). Shared by every latch-bit computation. *)
let reg_width (t : t) (r : Instr.vreg) : int =
  Option.value (Widths.width_opt t.widths r) ~default:32

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The largest single-instruction combinational delay — a lower bound on
   any achievable stage delay, computable without building the netlist.
   The autotuner's cheap costing tier prices clock from it. *)
let worst_instr_delay_ns ?stage_budget ?decomp (dp : Graph.t)
    (widths : Widths.t) : float =
  let consts = Graph.constant_values dp in
  List.fold_left
    (fun acc (_, (i : Instr.instr)) ->
      let sw =
        List.map
          (fun r -> Option.value (Widths.width_opt widths r) ~default:32)
          i.Instr.srcs
      in
      let const_operands =
        List.map (fun r -> Hashtbl.find_opt consts r) i.Instr.srcs
      in
      Float.max acc
        (Delay.instr_delay_ns ?stage_budget ?decomp ~const_operands i.Instr.op
           i.Instr.kind sw))
    0.0 (Graph.flatten dp)

let build ?(target_ns = 5.0) ?stage_budget ?decomp (dp : Graph.t)
    (widths : Widths.t) : t =
  let consts = Graph.constant_values dp in
  let instrs =
    List.mapi
      (fun idx (node_id, (i : Instr.instr)) ->
        let sw =
          List.map
            (fun r -> Option.value (Widths.width_opt widths r) ~default:32)
            i.Instr.srcs
        in
        let const_operands =
          List.map (fun r -> Hashtbl.find_opt consts r) i.Instr.srcs
        in
        let d =
          Delay.instr_delay ?stage_budget ?decomp ~const_operands i.Instr.op
            i.Instr.kind sw
        in
        { ti = i;
          ti_node = node_id;
          ti_index = idx;
          ti_delay = d.Delay.per_stage_ns;
          ti_stages = d.Delay.stages;
          asap = 0;
          alap = 0 })
      (Graph.flatten dp)
  in
  let producer : (Instr.vreg, tinstr) Hashtbl.t = Hashtbl.create 64 in
  let consumers : (Instr.vreg, tinstr list) Hashtbl.t = Hashtbl.create 64 in
  (* consumers are consed newest-first, then each list is reversed once
     into topological order *)
  List.iter
    (fun ti ->
      (match ti.ti.Instr.dst with
      | Some d -> Hashtbl.replace producer d ti
      | None -> ());
      List.iter
        (fun r ->
          let cur = Option.value (Hashtbl.find_opt consumers r) ~default:[] in
          Hashtbl.replace consumers r (ti :: cur))
        ti.ti.Instr.srcs)
    instrs;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) consumers;
  (* ---- ASAP: greedy delay-chunked levels, forward ----
     An instruction starts when its latest same-stage operand finishes; when
     the chain would exceed [target_ns] (and the operands arrive mid-stage,
     so a boundary can help), its operands are latched and it opens the next
     stage. A single instruction slower than the whole budget still gets a
     stage of its own. *)
  let finish : (Instr.vreg, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ti ->
      (* first stage a produced operand is usable combinationally: same
         stage for single-cycle producers, the stage after the region exit
         register for multi-stage ones *)
      let avail r =
        match Hashtbl.find_opt producer r with
        | Some p -> p.asap + region_span p
        | None -> 0
      in
      let max_src_stage =
        List.fold_left (fun acc r -> max acc (avail r)) 0 ti.ti.Instr.srcs
      in
      if ti.ti_stages > 1 then begin
        (* pinned region: operands latched at the entry boundary, so the
           region starts strictly after every producing stage; the result
           is registered at the exit, so downstream arrival is 0 *)
        let s =
          List.fold_left
            (fun acc r ->
              match Hashtbl.find_opt producer r with
              | Some p ->
                max acc (p.asap + if p.ti_stages > 1 then p.ti_stages else 1)
              | None -> acc)
            0 ti.ti.Instr.srcs
        in
        ti.asap <- s;
        match ti.ti.Instr.dst with
        | Some d -> Hashtbl.replace finish d 0.0
        | None -> ()
      end
      else begin
        let arrival r =
          match Hashtbl.find_opt producer r with
          | Some p when p.ti_stages = 1 && p.asap = max_src_stage ->
            Option.value
              (Option.bind p.ti.Instr.dst (Hashtbl.find_opt finish))
              ~default:0.0
          | Some _ | None -> 0.0
        in
        let start =
          List.fold_left (fun acc r -> Float.max acc (arrival r)) 0.0
            ti.ti.Instr.srcs
        in
        let s, f =
          if start +. ti.ti_delay > target_ns && start > 0.0 then
            max_src_stage + 1, ti.ti_delay
          else max_src_stage, start +. ti.ti_delay
        in
        ti.asap <- s;
        match ti.ti.Instr.dst with
        | Some d -> Hashtbl.replace finish d f
        | None -> ()
      end)
    instrs;
  let asap_stage_count =
    1
    + List.fold_left
        (fun acc ti -> max acc (ti.asap + ti.ti_stages - 1))
        0 instrs
  in
  (* ---- ALAP: the backward mirror within the ASAP stage count ----
     [tail d] is the combinational time from the producer of [d] starting
     to the end of its longest same-stage downstream chain. A sink may sit
     in the last stage; an instruction slides as late as its earliest
     consumer allows, crossing one boundary back when the downstream chain
     would no longer fit the budget. *)
  let tail : (Instr.vreg, float) Hashtbl.t = Hashtbl.create 64 in
  (* the latest stage a producer may occupy to satisfy consumer [c]: its
     own stage for single-cycle consumers (combinational chaining), one
     earlier for staged consumers (operands latched at the region entry) *)
  let allowed c = c.alap - if c.ti_stages > 1 then 1 else 0 in
  List.iter
    (fun ti ->
      let cons =
        match ti.ti.Instr.dst with
        | Some d -> Option.value (Hashtbl.find_opt consumers d) ~default:[]
        | None -> []
      in
      (if ti.ti_stages > 1 then
         (* pinned region: no mobility *)
         ti.alap <- ti.asap
       else
         match cons with
         | [] ->
           ti.alap <- asap_stage_count - 1
         | _ ->
           let min_cons_alap =
             List.fold_left (fun acc c -> min acc (allowed c)) max_int cons
           in
           let tail_in =
             List.fold_left
               (fun acc c ->
                 if c.ti_stages = 1 && allowed c = min_cons_alap then
                   Float.max acc
                     (Option.value
                        (Option.bind c.ti.Instr.dst (Hashtbl.find_opt tail))
                        ~default:c.ti_delay)
                 else acc)
               0.0 cons
           in
           if tail_in +. ti.ti_delay > target_ns && tail_in > 0.0 then
             ti.alap <- min_cons_alap - 1
           else ti.alap <- min_cons_alap);
      (* never earlier than the ASAP level: mobility stays non-negative *)
      if ti.alap < ti.asap then ti.alap <- ti.asap;
      match ti.ti.Instr.dst with
      | Some d ->
        let t_here =
          if ti.ti_stages > 1 then ti.ti_delay
          else
            let cons_same =
              List.fold_left
                (fun acc c ->
                  if c.ti_stages = 1 && c.alap = ti.alap then
                    Float.max acc
                      (Option.value
                         (Option.bind c.ti.Instr.dst (Hashtbl.find_opt tail))
                         ~default:c.ti_delay)
                  else acc)
                0.0 cons
            in
            ti.ti_delay +. cons_same
        in
        Hashtbl.replace tail d t_here
      | None -> ())
    (List.rev instrs);
  { dp; widths; target_ns; instrs; producer; consumers; asap_stage_count }

(* ------------------------------------------------------------------ *)
(* Accounting over a stage assignment                                  *)
(* ------------------------------------------------------------------ *)

(* The latch-placement model charges the edge producer(r) -> consumer with
   one latch per crossed stage boundary; a register's chain is as long as
   its furthest consumer, and output-port registers are carried to the
   final boundary at [stage_count]. *)

let last_uses (t : t) ~(stage_of : tinstr -> int) ~(stage_count : int) :
    (Instr.vreg, int) Hashtbl.t =
  let last_use : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ti ->
      List.iter
        (fun r ->
          let cur = Option.value (Hashtbl.find_opt last_use r) ~default:(-1) in
          if stage_of ti > cur then Hashtbl.replace last_use r (stage_of ti))
        ti.ti.Instr.srcs)
    t.instrs;
  List.iter
    (fun (p : Proc.port) -> Hashtbl.replace last_use p.Proc.port_reg stage_count)
    t.dp.Graph.output_ports;
  last_use

let latch_bits (t : t) ~(stage_of : tinstr -> int) ~(stage_count : int) : int =
  Hashtbl.fold
    (fun r use_stage acc ->
      let def_stage =
        match Hashtbl.find_opt t.producer r with
        | Some p -> stage_of p
        | None -> 0  (* external input: available at stage 0 *)
      in
      acc + (max 0 (use_stage - def_stage) * reg_width t r))
    (last_uses t ~stage_of ~stage_count)
    0

let feedback_bits (t : t) : int =
  List.fold_left
    (fun acc (_, kind, _) -> acc + kind.Roccc_cfront.Ast.bits)
    0 t.dp.Graph.proc.Proc.feedbacks

(* Worst combinational path per stage: an operand produced in the same
   stage arrives at its producer's finish time, one produced earlier (or
   externally) at the stage boundary. A multi-stage region charges its
   per-stage delay to every stage it occupies; its operands are latched at
   the entry boundary and its result registered at the exit, so nothing
   chains across the region walls. *)
let stage_delays (t : t) ~(stage_of : tinstr -> int) ~(stage_count : int) :
    float array =
  let delays = Array.make (max 1 stage_count) 0.0 in
  let finish : (Instr.vreg, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ti ->
      let s = stage_of ti in
      if ti.ti_stages > 1 then begin
        for j = max 0 s to min (s + ti.ti_stages - 1) (Array.length delays - 1)
        do
          if ti.ti_delay > delays.(j) then delays.(j) <- ti.ti_delay
        done;
        match ti.ti.Instr.dst with
        | Some d -> Hashtbl.replace finish d 0.0
        | None -> ()
      end
      else begin
        let start =
          List.fold_left
            (fun acc r ->
              match Hashtbl.find_opt t.producer r with
              | Some p when p.ti_stages = 1 && stage_of p = s ->
                Float.max acc
                  (Option.value
                     (Option.bind p.ti.Instr.dst (Hashtbl.find_opt finish))
                     ~default:0.0)
              | Some _ | None -> acc)
            0.0 ti.ti.Instr.srcs
        in
        let f = start +. ti.ti_delay in
        (match ti.ti.Instr.dst with
        | Some d -> Hashtbl.replace finish d f
        | None -> ());
        if s >= 0 && s < Array.length delays && f > delays.(s) then
          delays.(s) <- f
      end)
    t.instrs;
  delays

(* Slack of the edge producer(r) -> [consumer] under a stage assignment:
   the number of latch boundaries the value crosses to reach this use. *)
let edge_slack (t : t) ~(stage_of : tinstr -> int) (consumer : tinstr)
    (r : Instr.vreg) : int =
  let def_stage =
    match Hashtbl.find_opt t.producer r with
    | Some p -> stage_of p
    | None -> 0
  in
  max 0 (stage_of consumer - def_stage)

(* ------------------------------------------------------------------ *)
(* Feedback structure                                                  *)
(* ------------------------------------------------------------------ *)

(** Per feedback signal, the instructions on its LPR-to-SNX path (forward
    reachability from the LPRs intersected with backward reachability from
    the SNXs, plus the LPRs themselves). The pipeliner constrains each such
    path to a single stage — "each pipeline stage is an instance of single
    iteration in the for-loop body" — and the retimer pins it. *)
let feedback_paths (t : t) : (string * tinstr list) list =
  List.filter_map
    (fun (name, _, _) ->
      let lprs =
        List.filter
          (fun ti ->
            match ti.ti.Instr.op with
            | Instr.Lpr n -> String.equal n name
            | _ -> false)
          t.instrs
      in
      let snxs =
        List.filter
          (fun ti ->
            match ti.ti.Instr.op with
            | Instr.Snx n -> String.equal n name
            | _ -> false)
          t.instrs
      in
      if snxs = [] then None
      else begin
        let fwd = Hashtbl.create 16 in
        let rec forward ti =
          if not (Hashtbl.mem fwd ti.ti_index) then begin
            Hashtbl.replace fwd ti.ti_index ();
            match ti.ti.Instr.dst with
            | Some d ->
              List.iter forward
                (Option.value (Hashtbl.find_opt t.consumers d) ~default:[])
            | None -> ()
          end
        in
        List.iter forward lprs;
        let bwd = Hashtbl.create 16 in
        let rec backward ti =
          if not (Hashtbl.mem bwd ti.ti_index) then begin
            Hashtbl.replace bwd ti.ti_index ();
            List.iter
              (fun r ->
                match Hashtbl.find_opt t.producer r with
                | Some p -> backward p
                | None -> ())
              ti.ti.Instr.srcs
          end
        in
        List.iter backward snxs;
        let on_path ti =
          Hashtbl.mem fwd ti.ti_index && Hashtbl.mem bwd ti.ti_index
        in
        let members =
          List.filter (fun ti -> on_path ti || List.memq ti lprs) t.instrs
        in
        Some (name, members)
      end)
    t.dp.Graph.proc.Proc.feedbacks
