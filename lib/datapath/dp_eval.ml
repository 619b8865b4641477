(** Evaluator for built data paths. Unlike the VM evaluator it executes every
    node — there is no control flow left; alternative branches both compute
    and a mux selects (paper §4.2.2). Used to verify that data-path
    construction preserves the software semantics, and as the functional
    core of the cycle-accurate hardware simulator. *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type result = {
  outputs : (string * int64) list;
  feedback_next : (string * int64) list;
}

let truncate (k : Instr.ikind) v =
  Roccc_util.Bits.truncate ~signed:k.Roccc_cfront.Ast.signed
    k.Roccc_cfront.Ast.bits v

(* What an instruction does with its operands, resolved once per graph.
   A malformed instruction keeps its error until it is reached, so the
   error order is the evaluation order. *)
type action =
  | Define of Instr.vreg
  | Store_next of int  (** feedback slot, or -1 for an undeclared signal *)
  | Invalid of string

type step = {
  instr : Instr.instr;
  srcs : Instr.vreg array;
  action : action;
}

(* The register file and SNX slots are scratch reused by every launch. A
   value counts as defined only when its stamp equals the current launch
   number, so nothing written by one launch is visible to the next. *)
type prepared = {
  dp : Graph.t;
  steps : step array;
  regs : int64 array;
  reg_stamp : int array;
  feedback_init : (string * int64) list;  (** LPR value before any SNX *)
  feedback_slot : (string * int) list;  (** declaration order *)
  snx : int64 array;
  snx_stamp : int array;
  mutable launch : int;
}

let prepare (dp : Graph.t) : prepared =
  let feedbacks = dp.Graph.proc.Proc.feedbacks in
  (* a signal declared twice shares the slot of its first declaration *)
  let slot_of name =
    let rec find i = function
      | [] -> -1
      | (n, _, _) :: rest ->
        if String.equal n name then i else find (i + 1) rest
    in
    find 0 feedbacks
  in
  let instrs =
    List.concat_map (fun (n : Graph.node) -> n.Graph.instrs) dp.Graph.nodes
  in
  let steps =
    Array.of_list
      (List.map
         (fun (i : Instr.instr) ->
           let action =
             match i.Instr.op, i.Instr.dst with
             | Instr.Snx name, None ->
               if List.length i.Instr.srcs = 1 then Store_next (slot_of name)
               else Invalid "dp_eval: snx arity"
             | _, Some dst -> Define dst
             | _, None -> Invalid "dp_eval: instruction without destination"
           in
           { instr = i; srcs = Array.of_list i.Instr.srcs; action })
         instrs)
  in
  let port_regs ports =
    List.map (fun (p : Proc.port) -> p.Proc.port_reg) ports
  in
  let nregs =
    1
    + List.fold_left max 0
        (port_regs dp.Graph.input_ports
        @ port_regs dp.Graph.output_ports
        @ List.concat_map
            (fun (i : Instr.instr) -> Option.to_list i.Instr.dst @ i.Instr.srcs)
            instrs)
  in
  let nfeedbacks = List.length feedbacks in
  { dp;
    steps;
    regs = Array.make nregs 0L;
    reg_stamp = Array.make nregs 0;
    feedback_init =
      List.map (fun (n, kind, init) -> n, truncate kind init) feedbacks;
    feedback_slot = List.map (fun (n, _, _) -> n, slot_of n) feedbacks;
    snx = Array.make nfeedbacks 0L;
    snx_stamp = Array.make nfeedbacks 0;
    launch = 0 }

(* Division on a not-taken branch must not trap: evaluate speculative
   lanes with a harmless fallback, exactly like hardware where the unused
   lane's result is discarded by the mux. *)
let eval_guarded ~lut ~lpr (i : Instr.instr) (operands : int64 list) : int64 =
  let wide = i.Instr.kind.Roccc_cfront.Ast.bits > 32 in
  match i.Instr.op, operands with
  | Instr.Div, [ _; b ] when Int64.equal b 0L -> Int64.neg 1L
  | Instr.Rem, [ a; b ] when Int64.equal b 0L -> a
  (* wide operators run through the decomposed behavioural models the
     hardware instantiates (partial products + carry-save compression,
     block-pipelined add) so the differential checker co-runs the
     decomposition against the plain VM semantics; both are exactly the
     int64 operation mod 2^64 *)
  | Instr.Mul, [ a; b ] when wide -> Roccc_ip_wide.Wide.csa_mul a b
  | Instr.Add, [ a; b ] when wide -> Roccc_ip_wide.Wide.block_add a b
  | Instr.Sub, [ a; b ] when wide ->
    Roccc_ip_wide.Wide.block_add a (Int64.neg b)
  | op, _ -> Instr.eval_op ~lut ~lpr op operands

(** Evaluate one iteration on a prepared data path. When [widths] is given,
    every intermediate value is additionally truncated to its *inferred*
    physical width — the hardware the generator emits. Bit-width inference
    is sound iff this changes nothing; the property tests rely on it. *)
let run_prepared ?(luts = []) ?(feedback_prev = []) ?(widths : Widths.t option)
    (p : prepared) ~(inputs : (string * int64) list) : result =
  p.launch <- p.launch + 1;
  let launch = p.launch in
  let read r =
    if p.reg_stamp.(r) = launch then p.regs.(r)
    else errf "dp_eval: register v%d read before definition" r
  in
  let write r v =
    p.regs.(r) <- v;
    p.reg_stamp.(r) <- launch
  in
  let lpr name =
    match List.assoc_opt name feedback_prev with
    | Some v -> v
    | None -> (
      match List.assoc_opt name p.feedback_init with
      | Some v -> v
      | None -> errf "dp_eval: unknown feedback signal %s" name)
  in
  let lut name v =
    match List.assoc_opt name luts with
    | Some f -> f v
    | None -> errf "dp_eval: unknown lookup table %s" name
  in
  List.iter
    (fun (port : Proc.port) ->
      match List.assoc_opt port.Proc.port_name inputs with
      | Some v -> write port.Proc.port_reg (truncate port.Proc.port_kind v)
      | None -> errf "dp_eval: missing input %s" port.Proc.port_name)
    p.dp.Graph.input_ports;
  (* operands are fetched first to last, so the first undefined source is
     the one reported *)
  let operands srcs =
    match Array.length srcs with
    | 0 -> []
    | 1 -> [ read srcs.(0) ]
    | 2 ->
      let a = read srcs.(0) in
      [ a; read srcs.(1) ]
    | _ -> Array.to_list (Array.map read srcs)
  in
  Array.iter
    (fun s ->
      let i = s.instr in
      let operands = operands s.srcs in
      match s.action with
      | Store_next slot ->
        if slot >= 0 then begin
          p.snx.(slot) <- truncate i.Instr.kind (List.hd operands);
          p.snx_stamp.(slot) <- launch
        end
      | Define dst ->
        let v = truncate i.Instr.kind (eval_guarded ~lut ~lpr i operands) in
        let v =
          match widths with
          | Some w ->
            let bits =
              min (Widths.width w dst) i.Instr.kind.Roccc_cfront.Ast.bits
            in
            Roccc_util.Bits.truncate
              ~signed:i.Instr.kind.Roccc_cfront.Ast.signed bits v
          | None -> v
        in
        write dst v
      | Invalid msg -> raise (Error msg))
    p.steps;
  let outputs =
    List.map
      (fun (port : Proc.port) ->
        ( port.Proc.port_name,
          truncate port.Proc.port_kind (read port.Proc.port_reg) ))
      p.dp.Graph.output_ports
  in
  let feedback_next =
    List.filter_map
      (fun (name, slot) ->
        if p.snx_stamp.(slot) = launch then Some (name, p.snx.(slot)) else None)
      p.feedback_slot
  in
  { outputs; feedback_next }

let run ?luts ?feedback_prev ?widths (dp : Graph.t) ~inputs : result =
  run_prepared ?luts ?feedback_prev ?widths (prepare dp) ~inputs

(** The feedback values the next iteration reads: this iteration's SNX
    stores, and the previous values of signals it did not store. *)
let thread_feedback (prev : (string * int64) list) (r : result) :
    (string * int64) list =
  r.feedback_next
  @ List.filter (fun (n, _) -> not (List.mem_assoc n r.feedback_next)) prev

(** Iterate the data path over an input stream, threading feedback values. *)
let run_stream ?(luts = []) (dp : Graph.t)
    (stream : (string * int64) list list) : result list =
  let p = prepare dp in
  let feedback_prev = ref [] in
  List.map
    (fun inputs ->
      let r = run_prepared ~luts ~feedback_prev:!feedback_prev p ~inputs in
      feedback_prev := thread_feedback !feedback_prev r;
      r)
    stream
