(** Data-path construction (paper §4.2.2, Figures 5 and 6).

    The SSA-form procedure is parsed into a structured region tree (the dp
    functions are loop-free: straight-line code and if/else diamonds). Each
    CFG node becomes a soft node; alternative branches get a mux node merging
    their phis in front of the common successor, and a pipe node copying
    live variables around them; every value whose definition and use are not
    in adjoining levels gets register-copy instructions inserted so that
    "a virtual register's definition and reference [are] adjoining". *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc
module Cfg = Roccc_analysis.Cfg

module IM = Map.Make (Int)
module IS = Set.Make (Int)
module Diag = Roccc_util.Diag

(* ------------------------------------------------------------------ *)
(* Region tree                                                         *)
(* ------------------------------------------------------------------ *)

type item =
  | Plain of Proc.label
  | Diamond of {
      parent : Proc.label;  (* block whose terminator branches *)
      cond : Instr.vreg;
      then_items : item list;
      else_items : item list;
      join : Proc.label;
    }

(* First block (in RPO order) reachable from both targets: the join of a
   structured diamond. *)
let find_join (g : Cfg.t) (l1 : Proc.label) (l2 : Proc.label) : Proc.label =
  let reach from =
    let seen = Hashtbl.create 8 in
    let rec dfs l =
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.replace seen l ();
        List.iter dfs (Cfg.successors g l)
      end
    in
    dfs from;
    seen
  in
  let r1 = reach l1 and r2 = reach l2 in
  let common =
    Array.to_list g.Cfg.rpo
    |> List.filter (fun l -> Hashtbl.mem r1 l && Hashtbl.mem r2 l)
  in
  match common with
  | j :: _ -> j
  | [] ->
    Diag.failf "datapath construction"
      "builder: branches never rejoin — unstructured CFG"

(* Parse blocks from [l] until [stop] (exclusive) into a region sequence. *)
let rec parse_seq (g : Cfg.t) (l : Proc.label) (stop : Proc.label option) :
    item list =
  if Some l = stop then []
  else
    let b = Proc.find_block g.Cfg.proc l in
    match b.Proc.term with
    | Proc.Ret -> [ Plain l ]
    | Proc.Jump m -> Plain l :: parse_seq g m stop
    | Proc.Branch (cond, l1, l2) ->
      let join = find_join g l1 l2 in
      let then_items = parse_seq g l1 (Some join) in
      let else_items = parse_seq g l2 (Some join) in
      Diamond { parent = l; cond; then_items; else_items; join }
      :: parse_seq g join stop

(* ------------------------------------------------------------------ *)
(* Level layout                                                        *)
(* ------------------------------------------------------------------ *)

type proto_node = {
  pn_kind : Graph.kind;
  pn_instrs : Instr.instr list;  (* original SSA names; srcs rewritten later *)
}

(* Growable array of levels, each a list of proto nodes. *)
type layout = { mutable lv : proto_node list array }

let ensure (lay : layout) (level : int) =
  if level >= Array.length lay.lv then begin
    let bigger = Array.make (max (level + 1) (2 * Array.length lay.lv + 1)) [] in
    Array.blit lay.lv 0 bigger 0 (Array.length lay.lv);
    lay.lv <- bigger
  end

let add_node (lay : layout) (level : int) (pn : proto_node) =
  ensure lay level;
  lay.lv.(level) <- lay.lv.(level) @ [ pn ]

(* Mux instructions for the phis of a join block: dst = mux(cond, v_then,
   v_else), where v_then is the phi arg arriving from the then side. *)
let mux_instrs (g : Cfg.t) ~(cond : Instr.vreg) ~(join : Proc.label)
    ~(then_side : IS.t) : Instr.instr list =
  let b = Proc.find_block g.Cfg.proc join in
  List.map
    (fun (phi : Proc.phi) ->
      match phi.Proc.phi_args with
      | [ (la, va); (lb, vb) ] ->
        let v_then, v_else =
          if IS.mem la then_side then va, vb
          else if IS.mem lb then_side then vb, va
          else
            Diag.failf "datapath construction"
              "builder: phi in L%d has no arg from the then side" join
        in
        Instr.make ~dst:phi.Proc.phi_dst Instr.Mux [ cond; v_then; v_else ]
          phi.Proc.phi_kind
      | args ->
        Diag.failf "datapath construction"
          "builder: phi with %d args in L%d (expected 2)" (List.length args)
          join)
    b.Proc.phis

(* Labels belonging to a region sequence (for then-side membership tests). *)
let rec seq_labels (items : item list) : IS.t =
  List.fold_left
    (fun acc it ->
      match it with
      | Plain l -> IS.add l acc
      | Diamond d ->
        acc |> IS.add d.parent
        |> IS.union (seq_labels d.then_items)
        |> IS.union (seq_labels d.else_items))
    IS.empty items

(* Lay out a region sequence starting at [level]; returns the next free
   level. The [g] CFG supplies block instructions and phis. *)
let rec layout_seq (g : Cfg.t) (lay : layout) (items : item list) (level : int)
    : int =
  List.fold_left (fun level it -> layout_item g lay it level) level items

and layout_item (g : Cfg.t) (lay : layout) (it : item) (level : int) : int =
  match it with
  | Plain l ->
    let b = Proc.find_block g.Cfg.proc l in
    add_node lay level { pn_kind = Graph.Soft l; pn_instrs = b.Proc.instrs };
    level + 1
  | Diamond d ->
    (* parent soft node *)
    let pb = Proc.find_block g.Cfg.proc d.parent in
    add_node lay level
      { pn_kind = Graph.Soft d.parent; pn_instrs = pb.Proc.instrs };
    let branch_start = level + 1 in
    let end_then = layout_seq g lay d.then_items branch_start in
    let end_else = layout_seq g lay d.else_items branch_start in
    let mux_level = max (max end_then end_else) branch_start in
    let then_side = IS.add d.parent (seq_labels d.then_items) in
    (* If a branch is empty, the phi arg arrives straight from the parent,
       which we count as the then side only when l1 leads directly to join;
       seq_labels includes the parent for that case. *)
    let muxes = mux_instrs g ~cond:d.cond ~join:d.join ~then_side in
    add_node lay mux_level { pn_kind = Graph.Mux_node d.join; pn_instrs = muxes };
    mux_level + 1

(* ------------------------------------------------------------------ *)
(* Copy insertion + final graph                                        *)
(* ------------------------------------------------------------------ *)

(** Build the data path of an SSA-form procedure. The copy registers come
    from a {!Proc.copy}, which the graph keeps: the input is left as it
    was. *)
let build (proc : Proc.t) : Graph.t =
  let proc = Proc.copy proc in
  let g = Cfg.build proc in
  let items = parse_seq g (Cfg.entry_label g) None in
  let lay = { lv = Array.make 4 [] } in
  (* Entry node: input operands copied to the entry of the data flow. *)
  let entry_copies =
    List.map
      (fun (p : Proc.port) ->
        let dst = Proc.fresh_reg proc p.Proc.port_kind in
        Instr.make ~dst Instr.Mov [ p.Proc.port_reg ] p.Proc.port_kind)
      proc.Proc.inputs
  in
  add_node lay 0 { pn_kind = Graph.Entry_node; pn_instrs = entry_copies };
  let next = layout_seq g lay items 1 in
  let level_count = next in
  let levels = Array.sub lay.lv 0 level_count in
  (* ---- per-level original use sets (for needed-later analysis) ---- *)
  let uses_at_level =
    Array.map
      (fun nodes ->
        List.fold_left
          (fun acc pn ->
            List.fold_left
              (fun acc (i : Instr.instr) ->
                List.fold_left (fun acc s -> IS.add s acc) acc i.Instr.srcs)
              acc pn.pn_instrs)
          IS.empty nodes)
      levels
  in
  let output_regs =
    IS.of_list (List.map (fun (p : Proc.port) -> p.Proc.port_reg) proc.Proc.outputs)
  in
  (* used_after.(k) = regs used at any level > k, or by an output port *)
  let used_after = Array.make (level_count + 1) output_regs in
  for k = level_count - 1 downto 0 do
    used_after.(k) <- IS.union used_after.(k + 1) uses_at_level.(k)
  done;
  (* ---- forward pass: rewrite srcs, insert carrier copies ---- *)
  let node_id = Roccc_util.Id_gen.create () in
  let final_nodes : Graph.node list ref = ref [] in
  (* val_map: original SSA reg -> register carrying it after the previous
     level. Input ports start as themselves ("defined" at level -1). *)
  let val_map = ref IM.empty in
  List.iter
    (fun (p : Proc.port) ->
      val_map := IM.add p.Proc.port_reg p.Proc.port_reg !val_map)
    proc.Proc.inputs;
  let resolve local_defs r =
    if IS.mem r local_defs then r
    else
      match IM.find_opt r !val_map with
      | Some v -> v
      | None ->
        Diag.failf "datapath construction"
          "builder: register v%d used before it is available (level rout)" r
  in
  for k = 0 to level_count - 1 do
    let nodes = levels.(k) in
    (* rewrite each node's instructions against the incoming val_map *)
    let rewritten =
      List.map
        (fun pn ->
          (* left-to-right fold: defs must be visible to later uses *)
          let _, rev_instrs =
            List.fold_left
              (fun (local_defs, acc) (i : Instr.instr) ->
                let srcs = List.map (resolve local_defs) i.Instr.srcs in
                let local_defs =
                  match i.Instr.dst with
                  | Some d -> IS.add d local_defs
                  | None -> local_defs
                in
                local_defs, { i with Instr.srcs } :: acc)
              (IS.empty, []) pn.pn_instrs
          in
          pn, List.rev rev_instrs)
        nodes
    in
    (* defs of this level *)
    let level_defs =
      List.fold_left
        (fun acc (_, instrs) ->
          List.fold_left
            (fun acc (i : Instr.instr) ->
              match i.Instr.dst with Some d -> IS.add d acc | None -> acc)
            acc instrs)
        IS.empty rewritten
    in
    (* values to carry across this level: in val_map, needed later, and not
       (re)defined here under the same SSA name *)
    let carried =
      IM.fold
        (fun orig _cur acc ->
          if IS.mem orig used_after.(k) && not (IS.mem orig level_defs) then
            orig :: acc
          else acc)
        !val_map []
      |> List.sort compare
    in
    let carry_copies =
      List.map
        (fun orig ->
          let cur = IM.find orig !val_map in
          let kind = Proc.reg_kind proc orig in
          let dst = Proc.fresh_reg proc kind in
          orig, Instr.make ~dst Instr.Mov [ cur ] kind)
        carried
    in
    (* choose/extend a carrier node *)
    let carrier_kind, attach_to_existing =
      match rewritten with
      | [ (pn, _) ] -> pn.pn_kind, true  (* single node: it carries *)
      | _ -> Graph.Pipe_node, false
    in
    let emitted =
      match attach_to_existing, rewritten with
      | true, [ (pn, instrs) ] ->
        [ { Graph.id = Roccc_util.Id_gen.fresh node_id;
            node_kind = pn.pn_kind;
            instrs = instrs @ List.map snd carry_copies;
            level = k } ]
      | _, _ ->
        let base =
          List.map
            (fun (pn, instrs) ->
              { Graph.id = Roccc_util.Id_gen.fresh node_id;
                node_kind = pn.pn_kind;
                instrs;
                level = k })
            rewritten
        in
        if carry_copies = [] then base
        else
          base
          @ [ { Graph.id = Roccc_util.Id_gen.fresh node_id;
                node_kind = carrier_kind;
                instrs = List.map snd carry_copies;
                level = k } ]
    in
    ignore carrier_kind;
    final_nodes := !final_nodes @ emitted;
    (* update val_map: copies then defs (defs shadow) *)
    List.iter
      (fun (orig, (i : Instr.instr)) ->
        match i.Instr.dst with
        | Some d -> val_map := IM.add orig d !val_map
        | None -> ())
      carry_copies;
    IS.iter (fun d -> val_map := IM.add d d !val_map) level_defs
  done;
  (* ---- exit node: output operands copied to the exit ---- *)
  let exit_ports, exit_copies =
    List.fold_left
      (fun (ports, copies) (p : Proc.port) ->
        let cur =
          match IM.find_opt p.Proc.port_reg !val_map with
          | Some v -> v
          | None ->
            Diag.failf "datapath construction"
              "builder: output %s never defined" p.Proc.port_name
        in
        let dst = Proc.fresh_reg proc p.Proc.port_kind in
        ( ports @ [ { p with Proc.port_reg = dst } ],
          copies @ [ Instr.make ~dst Instr.Mov [ cur ] p.Proc.port_kind ] ))
      ([], []) proc.Proc.outputs
  in
  let exit_node =
    { Graph.id = Roccc_util.Id_gen.fresh node_id;
      node_kind = Graph.Exit_node;
      instrs = exit_copies;
      level = level_count }
  in
  let all_nodes = !final_nodes @ [ exit_node ] in
  let level_array = Array.make (level_count + 1) [] in
  List.iter
    (fun (n : Graph.node) ->
      level_array.(n.Graph.level) <- level_array.(n.Graph.level) @ [ n ])
    all_nodes;
  { Graph.proc;
    nodes = all_nodes;
    levels = level_array;
    input_ports = proc.Proc.inputs;
    output_ports = exit_ports }

(* ------------------------------------------------------------------ *)
(* Structural verification                                             *)
(* ------------------------------------------------------------------ *)

(** Check the def-use adjoining invariant: every register consumed by a node
    at level k is defined at level k-1 or within the node itself (external
    inputs feed level 0 only). *)
let verify_adjoining (dp : Graph.t) : unit =
  let produced_at = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun d -> Hashtbl.replace produced_at d n.Graph.level)
        (Graph.node_defs n))
    dp.Graph.nodes;
  let inputs =
    IS.of_list
      (List.map (fun (p : Proc.port) -> p.Proc.port_reg) dp.Graph.input_ports)
  in
  List.iter
    (fun (n : Graph.node) ->
      let local = IS.of_list (Graph.node_defs n) in
      List.iter
        (fun (i : Instr.instr) ->
          List.iter
            (fun s ->
              if IS.mem s local then ()
              else if IS.mem s inputs then begin
                if n.Graph.level <> 0 then
                  Diag.failf "datapath construction"
                    "adjoining violated: input v%d consumed at level %d (only \
                     level 0 may read external inputs)"
                    s n.Graph.level
              end
              else
                match Hashtbl.find_opt produced_at s with
                | Some lvl when lvl = n.Graph.level - 1 -> ()
                | Some lvl ->
                  Diag.failf "datapath construction"
                    "adjoining violated: v%d produced at level %d, consumed \
                     at level %d"
                    s lvl n.Graph.level
                | None ->
                  Diag.failf "datapath construction"
                    "adjoining: v%d has no producer" s)
            i.Instr.srcs)
        n.Graph.instrs)
    dp.Graph.nodes
