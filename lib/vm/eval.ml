(** Reference evaluator for VM procedures: executes one invocation (= one
    loop iteration of the original kernel) over concrete values. Used to
    check that lowering, SSA conversion and data-path construction preserve
    the software semantics. *)

module Diag = Roccc_util.Diag

type result = {
  outputs : (string * int64) list;
  feedback_next : (string * int64) list;
      (** values stored by SNX this iteration *)
}

let truncate (k : Instr.ikind) v =
  Roccc_util.Bits.truncate ~signed:k.Roccc_cfront.Ast.signed
    k.Roccc_cfront.Ast.bits v

(** Run [proc] once. [inputs] binds input port names to values;
    [feedback_prev] gives each feedback signal's previous-iteration value
    (defaults to its declared initial value); [luts] resolves table reads. *)
let run ?(luts = []) ?(feedback_prev = []) (proc : Proc.t)
    ~(inputs : (string * int64) list) : result =
  let regs : (Instr.vreg, int64) Hashtbl.t = Hashtbl.create 64 in
  let snx_values : (string, int64) Hashtbl.t = Hashtbl.create 4 in
  let read r =
    match Hashtbl.find_opt regs r with
    | Some v -> v
    | None ->
      Diag.failf "vm evaluation" "eval: register v%d read before definition" r
  in
  let lpr name =
    match List.assoc_opt name feedback_prev with
    | Some v -> v
    | None -> (
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) proc.Proc.feedbacks
      with
      | Some (_, kind, init) -> truncate kind init
      | None ->
        Diag.failf "vm evaluation" "eval: unknown feedback signal %s" name)
  in
  let lut name v =
    match List.assoc_opt name luts with
    | Some f -> f v
    | None -> Diag.failf "vm evaluation" "eval: unknown lookup table %s" name
  in
  (* Bind inputs. *)
  List.iter
    (fun (port : Proc.port) ->
      match List.assoc_opt port.Proc.port_name inputs with
      | Some v ->
        Hashtbl.replace regs port.Proc.port_reg
          (truncate port.Proc.port_kind v)
      | None ->
        Diag.failf "vm evaluation" "eval: missing input %s" port.Proc.port_name)
    proc.Proc.inputs;
  (* Execute blocks, bounded to catch accidental CFG cycles. *)
  let max_blocks = 100_000 in
  let rec exec (prev : Proc.label option) (b : Proc.block) (n : int) : unit =
    if n > max_blocks then
      Diag.failf "vm evaluation" "eval: block budget exhausted (CFG cycle?)";
    (* Phis read the value coming from the edge we arrived on; evaluate them
       in parallel from pre-phi register state. *)
    (match prev with
    | None -> ()
    | Some prev_label ->
      let values =
        List.map
          (fun (phi : Proc.phi) ->
            match List.assoc_opt prev_label phi.Proc.phi_args with
            | Some src -> phi.Proc.phi_dst, read src
            | None ->
              Diag.failf "vm evaluation"
                "eval: phi in L%d has no arg for predecessor L%d"
                b.Proc.label prev_label)
          b.Proc.phis
      in
      List.iter (fun (dst, v) -> Hashtbl.replace regs dst v) values);
    List.iter
      (fun (i : Instr.instr) ->
        let operands = List.map read i.Instr.srcs in
        match i.Instr.op, i.Instr.dst with
        | Instr.Snx name, None -> (
          match operands with
          | [ v ] -> Hashtbl.replace snx_values name (truncate i.Instr.kind v)
          | _ -> Diag.failf "vm evaluation" "eval: snx arity")
        | op, Some dst ->
          let v = Instr.eval_op ~lut ~lpr op operands in
          Hashtbl.replace regs dst (truncate i.Instr.kind v)
        | _, None ->
          Diag.failf "vm evaluation" "eval: instruction without destination")
      b.Proc.instrs;
    match b.Proc.term with
    | Proc.Ret -> ()
    | Proc.Jump l -> exec (Some b.Proc.label) (Proc.find_block proc l) (n + 1)
    | Proc.Branch (r, l1, l2) ->
      let target = if Int64.equal (read r) 0L then l2 else l1 in
      exec (Some b.Proc.label) (Proc.find_block proc target) (n + 1)
  in
  exec None (Proc.entry proc) 0;
  let outputs =
    List.map
      (fun (port : Proc.port) ->
        port.Proc.port_name, truncate port.Proc.port_kind (read port.Proc.port_reg))
      proc.Proc.outputs
  in
  let feedback_next =
    List.filter_map
      (fun (name, _, _) ->
        Option.map (fun v -> name, v) (Hashtbl.find_opt snx_values name))
      proc.Proc.feedbacks
  in
  { outputs; feedback_next }

(** Iterate a procedure over a stream of per-iteration inputs, threading
    feedback values — the software model of the pipelined data path. *)
let run_stream ?(luts = []) (proc : Proc.t)
    (stream : (string * int64) list list) : result list =
  let feedback_prev = ref [] in
  List.map
    (fun inputs ->
      let r = run ~luts ~feedback_prev:!feedback_prev proc ~inputs in
      (* Updated signals replace previous values; untouched ones persist. *)
      let merged =
        r.feedback_next
        @ List.filter
            (fun (n, _) -> not (List.mem_assoc n r.feedback_next))
            !feedback_prev
      in
      feedback_prev := merged;
      r)
    stream
