(** Evaluator for built data paths. Unlike the VM evaluator it executes every
    node — there is no control flow left; alternative branches both compute
    and a mux selects (paper §4.2.2). Used to verify that data-path
    construction preserves the software semantics, and as the functional
    core of the cycle-accurate hardware simulator.

    [prepare] compiles the data path once: each instruction becomes a
    closure over an unboxed register file with its operand registers and
    truncation resolved, and ports, feedback signals and lookup tables
    become indices. A launch then allocates nothing, save the values a
    lookup-table call or a 64-bit operator's decomposed model boxes. *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc
module Words = Roccc_util.Words
module Wide = Roccc_ip_wide.Wide
module Diag = Roccc_util.Diag

type result = {
  outputs : (string * int64) list;
  feedback_next : (string * int64) list;
}

(* The shift pair of Words.blit_wrapped, repeated so that it inlines into
   every compiled step: a call across modules would box the value. *)
let[@inline] wrap signed s v =
  if signed then Int64.shift_right (Int64.shift_left v s) s
  else Int64.shift_right_logical (Int64.shift_left v s) s

let[@inline] bool v = if v then 1L else 0L

type prepared = {
  regs : Words.t;
  program : (unit -> unit) array;  (** the steps, in evaluation order *)
  fault : exn option;
      (** raised after [program]: the step that follows it never
          completes *)
  in_names : string array;  (** input ports *)
  in_cols : int array;  (** input row column each port reads; -1 = none *)
  in_regs : int array;
  in_shift : int array;
  in_signed : bool array;
  out_names : string array;  (** output ports = output row columns *)
  out_regs : int array;
  out_shift : int array;
  out_signed : bool array;
  out_fault : exn option;  (** an output register no step defines *)
  (* One slot per declared feedback signal, in first-declaration order.
     [fb] is what LPR reads: the initial value, then the latest SNX
     store, committed when a launch ends. *)
  fb_names : string array;
  fb_init : Words.t;
  fb : Words.t;
  fb_decls : (string * int) list;  (** every declaration, with its slot *)
  snx : Words.t;
  snx_stamp : int array;  (** launch that last stored each slot *)
  launches : int ref;  (** numbers the launches, for [snx_stamp] *)
  columns : string array;  (** input row layout *)
  row : Words.t;  (** the list interface's input and output rows *)
  out_row : Words.t;
}

let index_of (names : string array) name =
  Option.value (Array.find_index (String.equal name) names) ~default:(-1)

(* Distinct names in order of first appearance. *)
let distinct names =
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    [] names

(* A compiled instruction: a step, nothing to do, or the fault every
   launch meets there. *)
type step = Step of (unit -> unit) | Skip | Stop of exn

let fault msg = Diag.Error { where = "datapath evaluation"; pos = None; msg }

let prepare ?(luts = []) ?(widths : Widths.t option) ?columns (dp : Graph.t) :
    prepared =
  let feedbacks = dp.Graph.proc.Proc.feedbacks in
  let instrs =
    List.concat_map (fun (n : Graph.node) -> n.Graph.instrs) dp.Graph.nodes
  in
  let fb_names =
    Array.of_list (distinct (List.map (fun (n, _, _) -> n) feedbacks))
  in
  let nslots = Array.length fb_names in
  let fb_init = Words.create nslots in
  Array.iteri
    (fun s name ->
      let _, kind, init =
        List.find (fun (n, _, _) -> String.equal n name) feedbacks
      in
      fb_init.{s} <-
        Roccc_util.Bits.truncate ~signed:kind.Roccc_cfront.Ast.signed
          kind.Roccc_cfront.Ast.bits init)
    fb_names;
  let fb = Words.create nslots in
  Bigarray.Array1.blit fb_init fb;
  let snx = Words.create nslots in
  let snx_stamp = Array.make nslots 0 in
  let launches = ref 0 in
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
  let r = Words.create nregs in
  let shift_of (k : Instr.ikind) = Words.shift k.Roccc_cfront.Ast.bits in
  let signed_of (k : Instr.ikind) = k.Roccc_cfront.Ast.signed in
  (* The operations are spelled out one closure each, so that every value
     stays unboxed inside its step. [bits] is the result kind's width, or
     the inferred width when narrower. *)
  let compile (i : Instr.instr) (d : int) : unit -> unit =
    let k = i.Instr.kind in
    let sg = signed_of k in
    let bits =
      match widths with
      | Some w -> min (Widths.width w d) k.Roccc_cfront.Ast.bits
      | None -> k.Roccc_cfront.Ast.bits
    in
    let s = Words.shift bits in
    (* wide operators run through the decomposed behavioural models the
       hardware instantiates (partial products + carry-save compression,
       block-pipelined add) so the differential checker co-runs the
       decomposition against the plain VM semantics; both are exactly the
       int64 operation mod 2^64 *)
    let wide = k.Roccc_cfront.Ast.bits > 32 in
    match i.Instr.op, i.Instr.srcs with
    | Instr.Add, [ a; b ] ->
      if wide then fun () -> r.{d} <- wrap sg s (Wide.block_add r.{a} r.{b})
      else fun () -> r.{d} <- wrap sg s (Int64.add r.{a} r.{b})
    | Instr.Sub, [ a; b ] ->
      if wide then fun () ->
        r.{d} <- wrap sg s (Wide.block_add r.{a} (Int64.neg r.{b}))
      else fun () -> r.{d} <- wrap sg s (Int64.sub r.{a} r.{b})
    | Instr.Mul, [ a; b ] ->
      if wide then fun () -> r.{d} <- wrap sg s (Wide.csa_mul r.{a} r.{b})
      else fun () -> r.{d} <- wrap sg s (Int64.mul r.{a} r.{b})
    (* division on a not-taken branch must not trap: the unused lane gets
       a harmless value, exactly like hardware where the mux discards it *)
    | Instr.Div, [ a; b ] ->
      fun () ->
        let y = r.{b} in
        r.{d} <- wrap sg s (if y = 0L then -1L else Int64.div r.{a} y)
    | Instr.Rem, [ a; b ] ->
      fun () ->
        let x = r.{a} and y = r.{b} in
        r.{d} <- wrap sg s (if y = 0L then x else Int64.rem x y)
    | Instr.Shl, [ a; b ] ->
      fun () ->
        r.{d} <-
          wrap sg s
            (Int64.shift_left r.{a} (Int64.to_int (Int64.logand r.{b} 63L)))
    | Instr.Shr, [ a; b ] ->
      fun () ->
        r.{d} <-
          wrap sg s
            (Int64.shift_right r.{a} (Int64.to_int (Int64.logand r.{b} 63L)))
    | Instr.Band, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (Int64.logand r.{a} r.{b})
    | Instr.Bor, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (Int64.logor r.{a} r.{b})
    | Instr.Bxor, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (Int64.logxor r.{a} r.{b})
    | Instr.Bnot, [ a ] -> fun () -> r.{d} <- wrap sg s (Int64.lognot r.{a})
    | Instr.Neg, [ a ] -> fun () -> r.{d} <- wrap sg s (Int64.neg r.{a})
    | Instr.Slt, [ a; b ] -> fun () -> r.{d} <- wrap sg s (bool (r.{a} < r.{b}))
    | Instr.Sle, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (bool (r.{a} <= r.{b}))
    | Instr.Sgt, [ a; b ] -> fun () -> r.{d} <- wrap sg s (bool (r.{a} > r.{b}))
    | Instr.Sge, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (bool (r.{a} >= r.{b}))
    | Instr.Seq, [ a; b ] -> fun () -> r.{d} <- wrap sg s (bool (r.{a} = r.{b}))
    | Instr.Sne, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (bool (r.{a} <> r.{b}))
    | Instr.Land, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (bool (r.{a} <> 0L && r.{b} <> 0L))
    | Instr.Lor, [ a; b ] ->
      fun () -> r.{d} <- wrap sg s (bool (r.{a} <> 0L || r.{b} <> 0L))
    | Instr.Lnot, [ a ] -> fun () -> r.{d} <- wrap sg s (bool (r.{a} = 0L))
    | (Instr.Mov | Instr.Cvt), [ a ] -> fun () -> r.{d} <- wrap sg s r.{a}
    | Instr.Ldc v, [] ->
      let v = wrap sg s v in
      fun () -> r.{d} <- v
    | Instr.Mux, [ sel; a; b ] ->
      fun () -> r.{d} <- wrap sg s (if r.{sel} <> 0L then r.{a} else r.{b})
    | Instr.Lpr name, [] ->
      let slot = index_of fb_names name in
      if slot < 0 then
        Diag.failf "datapath evaluation"
          "dp_eval: unknown feedback signal %s" name;
      fun () -> r.{d} <- wrap sg s fb.{slot}
    | Instr.Lut name, [ a ] -> (
      match List.assoc_opt name luts with
      | Some f -> fun () -> r.{d} <- wrap sg s (f r.{a})
      | None ->
        Diag.failf "datapath evaluation"
          "dp_eval: unknown lookup table %s" name)
    | op, srcs ->
      (* what Instr.eval_op raises for these operand lists *)
      match op with
      | Instr.Snx _ when List.length srcs = 1 ->
        Diag.failf "vm" "snx handled by the evaluator"
      | _ ->
        Diag.failf "vm" "arity mismatch for %s: got %d operand(s), expected %d"
          (Instr.opcode_name op) (List.length srcs) (Instr.arity op)
  in
  (* Every launch runs the steps in the same order, so a register read
     before its definition is a fact of the data path, found here; the
     first such read, like any other fault that does not depend on a
     value, ends the program. *)
  let defined = Array.make nregs false in
  List.iter (fun r -> defined.(r) <- true) (port_regs dp.Graph.input_ports);
  let undefined r =
    fault (Printf.sprintf "dp_eval: register v%d read before definition" r)
  in
  let step (i : Instr.instr) =
    (* operands are fetched first to last, so the first undefined source
       is the one reported *)
    match List.find_opt (fun r -> not defined.(r)) i.Instr.srcs with
    | Some reg -> Stop (undefined reg)
    | None -> (
      match i.Instr.op, i.Instr.dst, i.Instr.srcs with
      | Instr.Snx name, None, [ a ] -> (
        (* a signal declared twice shares the slot of its first
           declaration; an undeclared one is stored nowhere *)
        match index_of fb_names name with
        | -1 -> Skip
        | slot ->
          let sg = signed_of i.Instr.kind and s = shift_of i.Instr.kind in
          Step
            (fun () ->
              snx.{slot} <- wrap sg s r.{a};
              snx_stamp.(slot) <- !launches))
      | Instr.Snx _, None, _ -> Stop (fault "dp_eval: snx arity")
      | _, None, _ -> Stop (fault "dp_eval: instruction without destination")
      | _, Some d, _ -> (
        match compile i d with
        | f ->
          defined.(d) <- true;
          Step f
        | exception
            (Diag.Error
               { where = "datapath evaluation" | "vm" | "width inference"; _ }
             as e) ->
          Stop e))
  in
  let rec build acc = function
    | [] -> List.rev acc, None
    | i :: rest -> (
      match step i with
      | Step f -> build (f :: acc) rest
      | Skip -> build acc rest
      | Stop e -> List.rev acc, Some e)
  in
  let program, fault = build [] instrs in
  let ins f = Array.of_list (List.map f dp.Graph.input_ports) in
  let outs f = Array.of_list (List.map f dp.Graph.output_ports) in
  let in_names = ins (fun p -> p.Proc.port_name) in
  let columns = Option.value columns ~default:in_names in
  { regs = r;
    program = Array.of_list program;
    fault;
    in_names;
    in_cols = Array.map (index_of columns) in_names;
    in_regs = ins (fun p -> p.Proc.port_reg);
    in_shift = ins (fun p -> shift_of p.Proc.port_kind);
    in_signed = ins (fun p -> signed_of p.Proc.port_kind);
    out_names = outs (fun p -> p.Proc.port_name);
    out_regs = outs (fun p -> p.Proc.port_reg);
    out_shift = outs (fun p -> shift_of p.Proc.port_kind);
    out_signed = outs (fun p -> signed_of p.Proc.port_kind);
    out_fault =
      List.find_map
        (fun r -> if defined.(r) then None else Some (undefined r))
        (port_regs dp.Graph.output_ports);
    fb_names;
    fb_init;
    fb;
    fb_decls = List.map (fun (n, _, _) -> n, index_of fb_names n) feedbacks;
    snx;
    snx_stamp;
    launches;
    columns;
    row = Words.create (Array.length columns);
    out_row = Words.create (List.length dp.Graph.output_ports) }

let outputs (p : prepared) : string array = p.out_names

(** One launch: input port [k] reads word [at + in_cols.(k)] of [src],
    output port [k] is written to word [dst_at + k] of [dst], and the SNX
    stores become what LPR reads next. *)
let launch (p : prepared) (src : Words.t) (at : int) (dst : Words.t)
    (dst_at : int) : unit =
  incr p.launches;
  let r = p.regs in
  for k = 0 to Array.length p.in_regs - 1 do
    let c = p.in_cols.(k) in
    if c < 0 then
      Diag.failf "datapath evaluation"
        "dp_eval: missing input %s" p.in_names.(k);
    r.{p.in_regs.(k)} <- wrap p.in_signed.(k) p.in_shift.(k) src.{at + c}
  done;
  let program = p.program in
  for i = 0 to Array.length program - 1 do
    program.(i) ()
  done;
  Option.iter raise p.fault;
  Option.iter raise p.out_fault;
  for k = 0 to Array.length p.out_regs - 1 do
    dst.{dst_at + k} <- wrap p.out_signed.(k) p.out_shift.(k) r.{p.out_regs.(k)}
  done;
  let now = !(p.launches) in
  for s = 0 to Array.length p.fb_names - 1 do
    if p.snx_stamp.(s) = now then p.fb.{s} <- p.snx.{s}
  done

(** Evaluate one iteration on a prepared data path, from and to lists.
    [feedback_prev] gives each feedback signal's previous value (default:
    its declared initial value). *)
let run_prepared ?(feedback_prev = []) (p : prepared)
    ~(inputs : (string * int64) list) : result =
  Array.iteri
    (fun s name ->
      p.fb.{s} <-
        Option.value (List.assoc_opt name feedback_prev) ~default:p.fb_init.{s})
    p.fb_names;
  Array.iter
    (fun name ->
      if not (List.mem_assoc name inputs) then
        Diag.failf "datapath evaluation" "dp_eval: missing input %s" name)
    p.in_names;
  Array.iteri
    (fun j name ->
      p.row.{j} <- Option.value (List.assoc_opt name inputs) ~default:0L)
    p.columns;
  launch p p.row 0 p.out_row 0;
  let now = !(p.launches) in
  { outputs =
      Array.to_list (Array.mapi (fun k n -> n, p.out_row.{k}) p.out_names);
    feedback_next =
      List.filter_map
        (fun (name, s) ->
          if p.snx_stamp.(s) = now then Some (name, p.snx.{s}) else None)
        p.fb_decls }

let run ?luts ?feedback_prev ?widths (dp : Graph.t) ~inputs : result =
  run_prepared ?feedback_prev (prepare ?luts ?widths dp) ~inputs

(** The feedback values the next iteration reads: this iteration's SNX
    stores, and the previous values of signals it did not store. *)
let thread_feedback (prev : (string * int64) list) (r : result) :
    (string * int64) list =
  r.feedback_next
  @ List.filter (fun (n, _) -> not (List.mem_assoc n r.feedback_next)) prev

(** Iterate the data path over an input stream, threading feedback values. *)
let run_stream ?(luts = []) (dp : Graph.t)
    (stream : (string * int64) list list) : result list =
  let p = prepare ~luts dp in
  let feedback_prev = ref [] in
  List.map
    (fun inputs ->
      let r = run_prepared ~feedback_prev:!feedback_prev p ~inputs in
      feedback_prev := thread_feedback !feedback_prev r;
      r)
    stream
