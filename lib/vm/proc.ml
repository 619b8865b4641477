(** Procedures: basic blocks of VM instructions plus explicit control flow —
    the Machine-SUIF-style container the CFG and SSA libraries operate
    on. *)

module Diag = Roccc_util.Diag

type label = int

type terminator =
  | Jump of label
  | Branch of Instr.vreg * label * label  (** if reg <> 0 then l1 else l2 *)
  | Ret

(** SSA phi: [dst = phi(args)], one arg per predecessor label. *)
type phi = {
  phi_dst : Instr.vreg;
  phi_args : (label * Instr.vreg) list;
  phi_kind : Instr.ikind;
}

type block = {
  label : label;
  mutable phis : phi list;
  mutable instrs : Instr.instr list;
  mutable term : terminator;
}

(** Input/output port of a procedure: the hardware-facing interface. Inputs
    bind registers at entry; each output names the register whose value at
    [Ret] is the port's result. *)
type port = { port_name : string; port_reg : Instr.vreg; port_kind : Instr.ikind }

type t = {
  pname : string;
  mutable blocks : block list;  (** entry block first *)
  inputs : port list;
  mutable outputs : port list;
  reg_kinds : (Instr.vreg, Instr.ikind) Hashtbl.t;
  reg_gen : Roccc_util.Id_gen.t;
  label_gen : Roccc_util.Id_gen.t;
  feedbacks : (string * Instr.ikind * int64) list;
      (** feedback signals threaded through LPR/SNX *)
}

let create ?(feedbacks = []) pname : t =
  { pname;
    blocks = [];
    inputs = [];
    outputs = [];
    reg_kinds = Hashtbl.create 32;
    reg_gen = Roccc_util.Id_gen.create ();
    label_gen = Roccc_util.Id_gen.create ();
    feedbacks }

let fresh_reg (p : t) (kind : Instr.ikind) : Instr.vreg =
  let r = Roccc_util.Id_gen.fresh p.reg_gen in
  Hashtbl.replace p.reg_kinds r kind;
  r

let reg_kind (p : t) (r : Instr.vreg) : Instr.ikind =
  match Hashtbl.find_opt p.reg_kinds r with
  | Some k -> k
  | None -> Roccc_cfront.Ast.int32_kind

let fresh_block (p : t) : block =
  let b =
    { label = Roccc_util.Id_gen.fresh p.label_gen;
      phis = [];
      instrs = [];
      term = Ret }
  in
  p.blocks <- p.blocks @ [ b ];
  b

let find_block (p : t) (l : label) : block =
  match List.find_opt (fun b -> b.label = l) p.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Proc.find_block: no block %d" l)

let entry (p : t) : block =
  match p.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Proc.entry: empty procedure"

let successors (b : block) : label list =
  match b.term with
  | Jump l -> [ l ]
  | Branch (_, l1, l2) -> [ l1; l2 ]
  | Ret -> []

let all_instrs (p : t) : Instr.instr list =
  List.concat_map (fun b -> b.instrs) p.blocks

(** The smallest bound above every register mentioned anywhere in the
    procedure: the size of a register-indexed table. *)
let reg_universe (p : t) : int =
  let m = ref (-1) in
  let see r = if r > !m then m := r in
  Hashtbl.iter (fun r _ -> see r) p.reg_kinds;
  List.iter (fun (port : port) -> see port.port_reg) p.inputs;
  List.iter (fun (port : port) -> see port.port_reg) p.outputs;
  List.iter
    (fun (b : block) ->
      List.iter
        (fun (phi : phi) ->
          see phi.phi_dst;
          List.iter (fun (_, r) -> see r) phi.phi_args)
        b.phis;
      List.iter
        (fun (i : Instr.instr) ->
          (match i.Instr.dst with Some d -> see d | None -> ());
          List.iter see i.Instr.srcs)
        b.instrs;
      match b.term with
      | Branch (r, _, _) -> see r
      | Jump _ | Ret -> ())
    p.blocks;
  !m + 1

(** Deep copy: mutating the copy (SSA conversion, the optimizer) leaves the
    original untouched. Instructions and phis are immutable records, so the
    lists are shared; blocks and the kind table are fresh. *)
let copy (p : t) : t =
  { pname = p.pname;
    blocks =
      List.map
        (fun b ->
          { label = b.label; phis = b.phis; instrs = b.instrs; term = b.term })
        p.blocks;
    inputs = p.inputs;
    outputs = p.outputs;
    reg_kinds = Hashtbl.copy p.reg_kinds;
    reg_gen = Roccc_util.Id_gen.create ~start:(Roccc_util.Id_gen.peek p.reg_gen) ();
    label_gen =
      Roccc_util.Id_gen.create ~start:(Roccc_util.Id_gen.peek p.label_gen) ();
    feedbacks = p.feedbacks }

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(** Structural CFG invariants, independent of SSA form: non-empty, unique
    block labels, terminator targets resolve, phi arguments come from
    actual predecessors and cover every predecessor, and every used
    register has a definition (an instruction, a phi, or an input port).
    Raises {!Roccc_util.Diag.Error} on the first violation. *)
let verify_cfg (p : t) : unit =
  if p.blocks = [] then Diag.failf "vm cfg" "proc %s has no blocks" p.pname;
  let labels = List.map (fun b -> b.label) p.blocks in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then
        Diag.failf "vm cfg" "proc %s: duplicate block L%d" p.pname l;
      Hashtbl.replace seen l ())
    labels;
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then
            Diag.failf "vm cfg"
              "proc %s: L%d jumps to missing block L%d" p.pname b.label l)
        (successors b))
    p.blocks;
  (* predecessor map *)
  let preds : (label, label list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          Hashtbl.replace preds s
            (b.label :: Option.value (Hashtbl.find_opt preds s) ~default:[]))
        (successors b))
    p.blocks;
  List.iter
    (fun b ->
      let bpreds = Option.value (Hashtbl.find_opt preds b.label) ~default:[] in
      List.iter
        (fun phi ->
          let arg_labels = List.map fst phi.phi_args in
          let uniq = List.sort_uniq compare arg_labels in
          if List.length uniq <> List.length arg_labels then
            Diag.failf "vm cfg"
              "proc %s: phi v%d in L%d repeats a predecessor" p.pname
              phi.phi_dst b.label;
          List.iter
            (fun l ->
              if not (List.mem l bpreds) then
                Diag.failf "vm cfg"
                  "proc %s: phi v%d in L%d names non-predecessor L%d"
                  p.pname phi.phi_dst b.label l)
            arg_labels;
          List.iter
            (fun l ->
              if not (List.mem l arg_labels) then
                Diag.failf "vm cfg"
                  "proc %s: phi v%d in L%d misses predecessor L%d" p.pname
                  phi.phi_dst b.label l)
            bpreds)
        b.phis)
    p.blocks;
  (* every use has some definition *)
  let defined = Hashtbl.create 64 in
  List.iter (fun port -> Hashtbl.replace defined port.port_reg ()) p.inputs;
  List.iter
    (fun b ->
      List.iter (fun phi -> Hashtbl.replace defined phi.phi_dst ()) b.phis;
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d -> Hashtbl.replace defined d ()
          | None -> ())
        b.instrs)
    p.blocks;
  let check_use where r =
    if not (Hashtbl.mem defined r) then
      Diag.failf "vm cfg"
        "proc %s: %s uses undefined register v%d" p.pname where r
  in
  List.iter
    (fun b ->
      List.iter
        (fun phi ->
          List.iter
            (fun (_, r) ->
              check_use (Printf.sprintf "phi v%d in L%d" phi.phi_dst b.label) r)
            phi.phi_args)
        b.phis;
      List.iter
        (fun (i : Instr.instr) ->
          List.iter
            (check_use (Printf.sprintf "instruction in L%d" b.label))
            i.Instr.srcs)
        b.instrs;
      match b.term with
      | Branch (r, _, _) ->
        check_use (Printf.sprintf "branch in L%d" b.label) r
      | Jump _ | Ret -> ())
    p.blocks;
  List.iter
    (fun port ->
      check_use (Printf.sprintf "output port %s" port.port_name) port.port_reg)
    p.outputs

let to_string (p : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "proc %s\n" p.pname);
  List.iter
    (fun port ->
      Buffer.add_string buf
        (Printf.sprintf "  in  %s = v%d :%s%d\n" port.port_name port.port_reg
           (if port.port_kind.signed then "s" else "u")
           port.port_kind.bits))
    p.inputs;
  List.iter
    (fun port ->
      Buffer.add_string buf
        (Printf.sprintf "  out %s <- v%d\n" port.port_name port.port_reg))
    p.outputs;
  List.iter
    (fun (name, _, init) ->
      Buffer.add_string buf (Printf.sprintf "  feedback %s (init %Ld)\n" name init))
    p.feedbacks;
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "L%d:\n" b.label);
      List.iter
        (fun phi ->
          Buffer.add_string buf
            (Printf.sprintf "  v%d = phi %s\n" phi.phi_dst
               (String.concat ", "
                  (List.map
                     (fun (l, r) -> Printf.sprintf "[L%d: v%d]" l r)
                     phi.phi_args))))
        b.phis;
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ Instr.to_string i ^ "\n"))
        b.instrs;
      let term =
        match b.term with
        | Jump l -> Printf.sprintf "  jump L%d\n" l
        | Branch (r, l1, l2) -> Printf.sprintf "  branch v%d ? L%d : L%d\n" r l1 l2
        | Ret -> "  ret\n"
      in
      Buffer.add_string buf term)
    p.blocks;
  Buffer.contents buf
