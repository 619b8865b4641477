(** Back-end optimization passes over SSA-form procedures, run before
    data-path construction:

    - copy propagation: uses of a Mov result read the source directly;
    - local value numbering: within a block, identical pure computations
      (same opcode, same sources, same kind) share one instruction;
    - dead-code elimination: instructions whose results reach no output
      port, no SNX, no phi and no branch are dropped.

    All three shrink the generated circuit without changing behaviour; the
    area ablation in the bench quantifies the effect. *)

module Proc = Roccc_vm.Proc
module Instr = Roccc_vm.Instr

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

(* In SSA form a Mov dst <- src means dst and src are the same value with
   the same kind; redirect all readers to src. Cvt is NOT propagated (it
   changes width). Keeps the Movs themselves; DCE removes the dead ones. *)
let propagate_copies (proc : Proc.t) : int =
  let alias : (Instr.vreg, Instr.vreg) Hashtbl.t = Hashtbl.create 32 in
  let rec resolve r =
    match Hashtbl.find_opt alias r with
    | Some r' -> resolve r'
    | None -> r
  in
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.op, i.Instr.dst, i.Instr.srcs with
          | Instr.Mov, Some d, [ s ]
            when Roccc_cfront.Ast.equal_ikind i.Instr.kind
                   (Proc.reg_kind proc s) ->
            Hashtbl.replace alias d (resolve s)
          | _ -> ())
        b.Proc.instrs)
    proc.Proc.blocks;
  let rewrites = ref 0 in
  let rewrite r =
    let r' = resolve r in
    if r' <> r then incr rewrites;
    r'
  in
  List.iter
    (fun (b : Proc.block) ->
      b.Proc.phis <-
        List.map
          (fun (p : Proc.phi) ->
            { p with
              Proc.phi_args =
                List.map (fun (l, r) -> l, rewrite r) p.Proc.phi_args })
          b.Proc.phis;
      b.Proc.instrs <-
        List.map
          (fun (i : Instr.instr) ->
            { i with Instr.srcs = List.map rewrite i.Instr.srcs })
          b.Proc.instrs;
      match b.Proc.term with
      | Proc.Branch (r, l1, l2) -> b.Proc.term <- Proc.Branch (rewrite r, l1, l2)
      | Proc.Jump _ | Proc.Ret -> ())
    proc.Proc.blocks;
  (* outputs may point at a copy *)
  proc.Proc.outputs <-
    List.map
      (fun (p : Proc.port) -> { p with Proc.port_reg = resolve p.Proc.port_reg })
      proc.Proc.outputs;
  !rewrites

(* ------------------------------------------------------------------ *)
(* Local value numbering                                               *)
(* ------------------------------------------------------------------ *)

let pure_op = function
  | Instr.Add | Instr.Sub | Instr.Mul | Instr.Div | Instr.Rem | Instr.Shl
  | Instr.Shr | Instr.Band | Instr.Bor | Instr.Bxor | Instr.Bnot | Instr.Neg
  | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge | Instr.Seq | Instr.Sne
  | Instr.Land | Instr.Lor | Instr.Lnot | Instr.Ldc _ | Instr.Cvt
  | Instr.Mux | Instr.Lut _ -> true
  | Instr.Mov | Instr.Lpr _ | Instr.Snx _ -> false

let value_key (i : Instr.instr) : string option =
  if not (pure_op i.Instr.op) then None
  else
    let srcs =
      if Instr.is_commutative i.Instr.op then List.sort compare i.Instr.srcs
      else i.Instr.srcs
    in
    Some
      (Printf.sprintf "%s|%s|%s%d"
         (Instr.opcode_name i.Instr.op)
         (String.concat "," (List.map string_of_int srcs))
         (if i.Instr.kind.Roccc_cfront.Ast.signed then "s" else "u")
         i.Instr.kind.Roccc_cfront.Ast.bits)

(* Within each block, replace a recomputation with a Mov from the first
   instance (SSA keeps this sound: sources cannot be redefined). A fixpoint
   with copy propagation then collapses the Movs. *)
let value_number (proc : Proc.t) : int =
  let replaced = ref 0 in
  List.iter
    (fun (b : Proc.block) ->
      let seen : (string, Instr.vreg) Hashtbl.t = Hashtbl.create 16 in
      b.Proc.instrs <-
        List.map
          (fun (i : Instr.instr) ->
            match value_key i, i.Instr.dst with
            | Some key, Some d -> (
              match Hashtbl.find_opt seen key with
              | Some first ->
                incr replaced;
                Instr.make ~dst:d Instr.Mov [ first ] i.Instr.kind
              | None ->
                Hashtbl.replace seen key d;
                i)
            | _ -> i)
          b.Proc.instrs)
    proc.Proc.blocks;
  !replaced

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

let eliminate_dead (proc : Proc.t) : int =
  (* roots: output ports, SNX sources, branch conditions, phi args *)
  let live = Array.make (Proc.reg_universe proc) false in
  let work = ref [] in
  let mark r =
    if not live.(r) then begin
      live.(r) <- true;
      work := r :: !work
    end
  in
  List.iter (fun (p : Proc.port) -> mark p.Proc.port_reg) proc.Proc.outputs;
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.op with
          | Instr.Snx _ -> List.iter mark i.Instr.srcs
          | _ -> ())
        b.Proc.instrs;
      match b.Proc.term with
      | Proc.Branch (r, _, _) -> mark r
      | Proc.Jump _ | Proc.Ret -> ())
    proc.Proc.blocks;
  (* transitive closure over defs *)
  let def_srcs : (Instr.vreg, Instr.vreg list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Proc.block) ->
      List.iter
        (fun (p : Proc.phi) ->
          Hashtbl.replace def_srcs p.Proc.phi_dst
            (List.map snd p.Proc.phi_args))
        b.Proc.phis;
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d -> Hashtbl.replace def_srcs d i.Instr.srcs
          | None -> ())
        b.Proc.instrs)
    proc.Proc.blocks;
  let rec drain () =
    match !work with
    | [] -> ()
    | r :: rest ->
      work := rest;
      List.iter mark (Option.value (Hashtbl.find_opt def_srcs r) ~default:[]);
      drain ()
  in
  drain ();
  let removed = ref 0 in
  List.iter
    (fun (b : Proc.block) ->
      let keep_phi (p : Proc.phi) = live.(p.Proc.phi_dst) in
      let kept_phis = List.filter keep_phi b.Proc.phis in
      removed := !removed + List.length b.Proc.phis - List.length kept_phis;
      b.Proc.phis <- kept_phis;
      let keep (i : Instr.instr) =
        match i.Instr.op, i.Instr.dst with
        | Instr.Snx _, _ -> true
        | _, Some d -> live.(d)
        | _, None -> true
      in
      let kept = List.filter keep b.Proc.instrs in
      removed := !removed + List.length b.Proc.instrs - List.length kept;
      b.Proc.instrs <- kept)
    proc.Proc.blocks;
  !removed

(* ------------------------------------------------------------------ *)

type stats = { copies_propagated : int; values_numbered : int; dead_removed : int }

(** Run copy propagation, value numbering and DCE to a fixpoint. *)
let run (proc : Proc.t) : stats =
  let totals = ref { copies_propagated = 0; values_numbered = 0; dead_removed = 0 } in
  let rec loop n =
    if n = 0 then ()
    else begin
      let c = propagate_copies proc in
      let v = value_number proc in
      let c2 = propagate_copies proc in
      let d = eliminate_dead proc in
      totals :=
        { copies_propagated = !totals.copies_propagated + c + c2;
          values_numbered = !totals.values_numbered + v;
          dead_removed = !totals.dead_removed + d };
      if c + v + c2 + d > 0 then loop (n - 1)
    end
  in
  loop 8;
  !totals
