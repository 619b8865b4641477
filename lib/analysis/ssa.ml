(** Static single assignment construction — the Machine-SUIF SSA library
    equivalent (paper reference [16]). "Before fed to ROCCC's passes, the
    virtual machine IR first undergoes Machine-SUIF Static Single Assignment
    and Control Flow Graph transformations. At this point ... every virtual
    register is assigned only once" (paper §4.2.1).

    Minimal-SSA via iterated dominance frontiers, then dominator-tree
    renaming. Output ports are rebound to the SSA name reaching the exit. *)

module Proc = Roccc_vm.Proc
module Instr = Roccc_vm.Instr
module Diag = Roccc_util.Diag

(* Dominator-tree children map derived from idom. *)
let dom_children (g : Cfg.t) : (Proc.label, Proc.label list) Hashtbl.t =
  let children = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      match Cfg.immediate_dominator g l with
      | Some d ->
        let cur = Option.value (Hashtbl.find_opt children d) ~default:[] in
        Hashtbl.replace children d (cur @ [ l ])
      | None -> ())
    g.Cfg.rpo;
  children

(** Convert [proc] to SSA form in place (blocks/phis are mutated; output port
    registers are rebound). Returns the rebuilt CFG. *)
let convert (proc : Proc.t) : Cfg.t =
  let g = Cfg.build proc in
  let df = Cfg.dominance_frontiers g in
  (* Labels index the phi-insertion membership arrays. *)
  let label_universe =
    1 + List.fold_left (fun m (b : Proc.block) -> max m b.Proc.label) (-1)
          proc.Proc.blocks
  in
  (* ---- collect definition blocks per register ---- *)
  let def_blocks : (Instr.vreg, bool array) Hashtbl.t = Hashtbl.create 32 in
  let def_count : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 32 in
  let note_def r l =
    (match Hashtbl.find_opt def_blocks r with
    | Some bs -> bs.(l) <- true
    | None ->
      let bs = Array.make label_universe false in
      bs.(l) <- true;
      Hashtbl.replace def_blocks r bs);
    Hashtbl.replace def_count r
      (1 + Option.value (Hashtbl.find_opt def_count r) ~default:0)
  in
  let entry_l = Cfg.entry_label g in
  (* Input-port bindings count as a definition at entry. *)
  List.iter (fun (p : Proc.port) -> note_def p.Proc.port_reg entry_l) proc.Proc.inputs;
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d -> note_def d b.Proc.label
          | None -> ())
        b.Proc.instrs)
    proc.Proc.blocks;
  (* ---- phi insertion at iterated dominance frontiers ---- *)
  let needs_phi r =
    Option.value (Hashtbl.find_opt def_count r) ~default:0 > 1
  in
  Hashtbl.iter
    (fun r blocks ->
      if needs_phi r then begin
        (* iterated dominance frontier of the definition blocks, seeded in
           ascending label order *)
        let placed = Array.make label_universe false in
        let seen = Array.make label_universe false in
        let work = ref [] in
        for l = label_universe - 1 downto 0 do
          if blocks.(l) then work := l :: !work
        done;
        while !work <> [] do
          match !work with
          | [] -> ()
          | l :: rest ->
            work := rest;
            let frontier = Option.value (Hashtbl.find_opt df l) ~default:[] in
            List.iter
              (fun y ->
                if not placed.(y) then begin
                  placed.(y) <- true;
                  let b = Proc.find_block proc y in
                  b.Proc.phis <-
                    b.Proc.phis
                    @ [ { Proc.phi_dst = r;  (* renamed below *)
                          phi_args = [];
                          phi_kind = Proc.reg_kind proc r } ];
                  if not seen.(y) then begin
                    seen.(y) <- true;
                    work := y :: !work
                  end
                end)
              frontier
        done
      end)
    def_blocks;
  (* Remember each phi's original variable before renaming. *)
  let phi_orig : (Proc.label * int, Instr.vreg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Proc.block) ->
      List.iteri
        (fun i (phi : Proc.phi) ->
          Hashtbl.replace phi_orig (b.Proc.label, i) phi.Proc.phi_dst)
        b.Proc.phis)
    proc.Proc.blocks;
  (* ---- renaming ---- *)
  let stacks : (Instr.vreg, Instr.vreg list) Hashtbl.t = Hashtbl.create 32 in
  let top r =
    match Hashtbl.find_opt stacks r with
    | Some (v :: _) -> v
    | Some [] | None -> r  (* undefined-before-use: keep original (inputs) *)
  in
  let push r v =
    let cur = Option.value (Hashtbl.find_opt stacks r) ~default:[] in
    Hashtbl.replace stacks r (v :: cur)
  in
  let pop r =
    match Hashtbl.find_opt stacks r with
    | Some (_ :: rest) -> Hashtbl.replace stacks r rest
    | Some [] | None -> ()
  in
  let fresh_version r =
    let k = Proc.reg_kind proc r in
    Proc.fresh_reg proc k
  in
  let exit_label =
    match
      List.find_opt
        (fun (b : Proc.block) -> b.Proc.term = Proc.Ret)
        proc.Proc.blocks
    with
    | Some b -> b.Proc.label
    | None ->
      Diag.failf "ssa" "ssa: procedure %s has no exit block" proc.Proc.pname
  in
  (* the outputs rebound to the versions reaching the exit; only the exit
     block's environment is read, so no other block's is kept *)
  let exit_outputs = ref proc.Proc.outputs in
  let children = dom_children g in
  let multi r = needs_phi r in
  let rec rename (l : Proc.label) =
    let b = Proc.find_block proc l in
    let pushed = ref [] in
    (* phis define new versions (left-to-right fold: push order matters) *)
    let _, rev_phis =
      List.fold_left
        (fun (i, acc) (phi : Proc.phi) ->
          let orig = Hashtbl.find phi_orig (l, i) in
          let v = fresh_version orig in
          push orig v;
          pushed := orig :: !pushed;
          i + 1, { phi with Proc.phi_dst = v } :: acc)
        (0, []) b.Proc.phis
    in
    b.Proc.phis <- List.rev rev_phis;
    (* instructions: rewrite uses, version defs *)
    let rev_instrs =
      List.fold_left
        (fun acc (i : Instr.instr) ->
          let srcs = List.map top i.Instr.srcs in
          let dst =
            match i.Instr.dst with
            | Some d when multi d ->
              let v = fresh_version d in
              push d v;
              pushed := d :: !pushed;
              Some v
            | Some d ->
              (* single definition: keep the name, but still record it *)
              push d d;
              pushed := d :: !pushed;
              Some d
            | None -> None
          in
          { i with Instr.srcs; dst } :: acc)
        [] b.Proc.instrs
    in
    b.Proc.instrs <- List.rev rev_instrs;
    (* terminator use *)
    (match b.Proc.term with
    | Proc.Branch (r, l1, l2) -> b.Proc.term <- Proc.Branch (top r, l1, l2)
    | Proc.Jump _ | Proc.Ret -> ());
    if l = exit_label then
      exit_outputs :=
        List.map
          (fun (p : Proc.port) ->
            { p with Proc.port_reg = top p.Proc.port_reg })
          proc.Proc.outputs;
    (* fill phi args in successors *)
    List.iter
      (fun s ->
        let sb = Proc.find_block proc s in
        sb.Proc.phis <-
          List.mapi
            (fun i (phi : Proc.phi) ->
              let orig = Hashtbl.find phi_orig (s, i) in
              { phi with Proc.phi_args = phi.Proc.phi_args @ [ l, top orig ] })
            sb.Proc.phis)
      (Cfg.successors g l);
    (* recurse into dominator-tree children *)
    List.iter rename (Option.value (Hashtbl.find_opt children l) ~default:[]);
    List.iter pop !pushed
  in
  (* Inputs are live versions of themselves at entry. *)
  List.iter
    (fun (p : Proc.port) -> push p.Proc.port_reg p.Proc.port_reg)
    proc.Proc.inputs;
  rename entry_l;
  proc.Proc.outputs <- !exit_outputs;
  Cfg.build proc

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(** Check the SSA invariant: every register is assigned exactly once. *)
let verify (proc : Proc.t) : unit =
  let seen = Hashtbl.create 64 in
  let check r where =
    if Hashtbl.mem seen r then
      Diag.failf "ssa" "ssa: register v%d assigned more than once (%s)" r where
    else Hashtbl.replace seen r ()
  in
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (phi : Proc.phi) ->
          check phi.Proc.phi_dst (Printf.sprintf "phi in L%d" b.Proc.label))
        b.Proc.phis;
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d -> check d (Printf.sprintf "instr in L%d" b.Proc.label)
          | None -> ())
        b.Proc.instrs)
    proc.Proc.blocks

(* Defs-dominate-uses: the other half of the SSA invariant. Input ports
   (and the inputs' registers) define at entry; a same-block definition
   must textually precede the use; a cross-block definition must dominate
   the using block. Phi uses are checked against the corresponding
   predecessor, where the value actually flows in. *)
let verify_dominance (proc : Proc.t) : unit =
  let cfg = Cfg.build proc in
  (* def site per register: (block label, position). Phis define at the
     top of their block (position -1); instruction k defines at k. *)
  let defs : (Instr.vreg, Proc.label * int) Hashtbl.t = Hashtbl.create 64 in
  let entry_label = Cfg.entry_label cfg in
  List.iter
    (fun (port : Proc.port) ->
      Hashtbl.replace defs port.Proc.port_reg (entry_label, -1))
    proc.Proc.inputs;
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (phi : Proc.phi) ->
          Hashtbl.replace defs phi.Proc.phi_dst (b.Proc.label, -1))
        b.Proc.phis;
      List.iteri
        (fun k (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d -> Hashtbl.replace defs d (b.Proc.label, k)
          | None -> ())
        b.Proc.instrs)
    proc.Proc.blocks;
  let check_use ~block ~pos ~what r =
    match Hashtbl.find_opt defs r with
    | None ->
      Diag.failf "ssa" "ssa: %s uses v%d, which has no definition" what r
    | Some (dl, dpos) ->
      if dl = block then begin
        if dpos >= pos then
          Diag.failf "ssa"
            "ssa: %s uses v%d before its definition in L%d" what r block
      end
      else if not (Cfg.dominates cfg dl block) then
        Diag.failf "ssa"
          "ssa: %s uses v%d, defined in L%d which does not dominate L%d"
          what r dl block
  in
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (phi : Proc.phi) ->
          List.iter
            (fun (pred, r) ->
              (* the value must be available at the end of the predecessor *)
              check_use ~block:pred
                ~pos:(List.length (Proc.find_block proc pred).Proc.instrs)
                ~what:
                  (Printf.sprintf "phi v%d in L%d (edge from L%d)"
                     phi.Proc.phi_dst b.Proc.label pred)
                r)
            phi.Proc.phi_args)
        b.Proc.phis;
      List.iteri
        (fun k (i : Instr.instr) ->
          List.iter
            (check_use ~block:b.Proc.label ~pos:k
               ~what:(Printf.sprintf "instr %d in L%d" k b.Proc.label))
            i.Instr.srcs)
        b.Proc.instrs;
      match b.Proc.term with
      | Proc.Branch (r, _, _) ->
        check_use ~block:b.Proc.label
          ~pos:(List.length b.Proc.instrs)
          ~what:(Printf.sprintf "branch in L%d" b.Proc.label)
          r
      | Proc.Jump _ | Proc.Ret -> ())
    proc.Proc.blocks;
  (* output ports read at Ret: their definition must dominate every Ret
     block (SSA conversion rebinds them to the names reaching the exit) *)
  List.iter
    (fun (b : Proc.block) ->
      match b.Proc.term with
      | Proc.Ret ->
        List.iter
          (fun (port : Proc.port) ->
            check_use ~block:b.Proc.label
              ~pos:(List.length b.Proc.instrs)
              ~what:(Printf.sprintf "output port %s" port.Proc.port_name)
              port.Proc.port_reg)
          proc.Proc.outputs
      | Proc.Jump _ | Proc.Branch _ -> ())
    proc.Proc.blocks
