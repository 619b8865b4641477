(** The data-path graph (paper §4.2.2): a leveled DAG of nodes. Soft nodes
    come from CFG nodes and "will have the same behavior on a CPU compared
    with the whole data path on a FPGA"; mux and pipe nodes are hard nodes —
    "they only appear in hardware and have no equivalence in software". *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

type kind =
  | Soft of Proc.label   (** data path of one CFG node *)
  | Mux_node of Proc.label
      (** hard node: merges alternative branches feeding their common
          successor (node 7 in Figure 6) *)
  | Pipe_node
      (** hard node: copies live variables from the branches' parent to
          their common successor (node 6 in Figure 6) *)
  | Entry_node  (** input operands copied at the entry of the data flow *)
  | Exit_node   (** output operands copied at the exit of the data flow *)

type node = {
  id : int;
  node_kind : kind;
  mutable instrs : Instr.instr list;  (** in dependency order *)
  level : int;                        (** stage index, 0 = entry *)
}

type t = {
  proc : Proc.t;  (** register kinds, feedback declarations, ports *)
  nodes : node list;  (** ascending by level *)
  levels : node list array;
  input_ports : Proc.port list;   (** external inputs feeding level 0 *)
  output_ports : Proc.port list;  (** exit-node copies, by final register *)
}

let kind_name = function
  | Soft l -> Printf.sprintf "soft(L%d)" l
  | Mux_node l -> Printf.sprintf "mux(join L%d)" l
  | Pipe_node -> "pipe"
  | Entry_node -> "entry"
  | Exit_node -> "exit"

let is_hard (n : node) =
  match n.node_kind with
  | Mux_node _ | Pipe_node -> true
  | Soft _ | Entry_node | Exit_node -> false

(** Registers defined inside a node. *)
let node_defs (n : node) : Instr.vreg list =
  List.filter_map (fun (i : Instr.instr) -> i.Instr.dst) n.instrs

(** Registers consumed by a node from outside (its input wires). *)
let node_inputs (n : node) : Instr.vreg list =
  let defs = node_defs n in
  List.concat_map (fun (i : Instr.instr) -> i.Instr.srcs) n.instrs
  |> List.filter (fun r -> not (List.mem r defs))
  |> List.sort_uniq compare

(** Registers that carry compile-time constants (Ldc results, propagated
    through Mov/Cvt) — constant multiplier/shift operands are much cheaper
    in both area and delay. *)
let constant_values (dp : t) : (Instr.vreg, int64) Hashtbl.t =
  let consts = Hashtbl.create 32 in
  List.iter
    (fun (n : node) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.op, i.Instr.dst with
          | Instr.Ldc v, Some d -> Hashtbl.replace consts d v
          | (Instr.Mov | Instr.Cvt), Some d -> (
            match i.Instr.srcs with
            | [ s ] -> (
              match Hashtbl.find_opt consts s with
              | Some v -> Hashtbl.replace consts d v
              | None -> ())
            | _ -> ())
          | _ -> ())
        n.instrs)
    dp.nodes;
  consts

let instr_count (dp : t) : int =
  List.fold_left (fun acc n -> acc + List.length n.instrs) 0 dp.nodes

(** Every instruction tagged with its owning node id, flattened in
    (level, node, program) order — topological by construction, the
    canonical instruction order of the timing and pipelining layers. *)
let flatten (dp : t) : (int * Instr.instr) list =
  List.concat_map
    (fun (n : node) -> List.map (fun i -> n.id, i) n.instrs)
    dp.nodes

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

exception Ill_formed of string

let illf fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt

(** Structural invariants of a built data path: node ids unique, the
    [levels] index consistent with each node's [level], single assignment
    across the whole graph, and forward dataflow — every operand is an
    external input or is defined at a strictly earlier level, or earlier
    within the same node. Feedback enters through LPR results (ordinary
    definitions), so a well-formed graph is acyclic modulo the LPR/SNX
    feedback registers. Raises {!Ill_formed} on the first violation. *)
let verify (dp : t) : unit =
  let ids = Hashtbl.create 32 in
  List.iter
    (fun n ->
      if Hashtbl.mem ids n.id then illf "datapath: duplicate node id %d" n.id;
      Hashtbl.replace ids n.id ())
    dp.nodes;
  let nlevels = Array.length dp.levels in
  List.iter
    (fun n ->
      if n.level < 0 || n.level >= nlevels then
        illf "datapath: node %d at level %d outside [0,%d)" n.id n.level nlevels;
      if not (List.memq n dp.levels.(n.level)) then
        illf "datapath: node %d missing from its level %d" n.id n.level)
    dp.nodes;
  Array.iteri
    (fun lvl nodes ->
      List.iter
        (fun n ->
          if n.level <> lvl then
            illf "datapath: node %d indexed at level %d but labeled %d" n.id
              lvl n.level)
        nodes)
    dp.levels;
  (* single assignment + definition site (level, node, index) per register *)
  let def_level : (Instr.vreg, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iteri
        (fun k (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d ->
            if Hashtbl.mem def_level d then
              illf "datapath: register v%d defined twice (node %d)" d n.id;
            Hashtbl.replace def_level d (n.level, n.id, k)
          | None -> ())
        n.instrs)
    dp.nodes;
  let inputs = Hashtbl.create 16 in
  List.iter
    (fun (p : Proc.port) -> Hashtbl.replace inputs p.Proc.port_reg ())
    dp.input_ports;
  List.iter
    (fun n ->
      List.iteri
        (fun k (i : Instr.instr) ->
          List.iter
            (fun r ->
              if not (Hashtbl.mem inputs r) then
                match Hashtbl.find_opt def_level r with
                | None ->
                  illf "datapath: node %d uses undefined register v%d" n.id r
                | Some (dl, dnode, dpos) ->
                  if dl > n.level then
                    illf
                      "datapath: node %d (level %d) uses v%d defined at later \
                       level %d"
                      n.id n.level r dl
                  else if dnode = n.id && dpos >= k then
                    illf
                      "datapath: node %d uses v%d before its definition at \
                       level %d"
                      n.id r dl)
            i.Instr.srcs)
        n.instrs)
    dp.nodes;
  List.iter
    (fun (p : Proc.port) ->
      if
        (not (Hashtbl.mem def_level p.Proc.port_reg))
        && not (Hashtbl.mem inputs p.Proc.port_reg)
      then
        illf "datapath: output port %s reads undefined register v%d"
          p.Proc.port_name p.Proc.port_reg)
    dp.output_ports

let copy_count (dp : t) : int =
  List.fold_left
    (fun acc n ->
      acc
      + List.length
          (List.filter
             (fun (i : Instr.instr) -> i.Instr.op = Instr.Mov)
             n.instrs))
    0 dp.nodes

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_string (dp : t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "datapath %s: %d nodes in %d levels\n" dp.proc.Proc.pname
       (List.length dp.nodes) (Array.length dp.levels));
  List.iter
    (fun (p : Proc.port) ->
      Buffer.add_string buf
        (Printf.sprintf "  input  %s -> v%d\n" p.Proc.port_name p.Proc.port_reg))
    dp.input_ports;
  List.iter
    (fun (p : Proc.port) ->
      Buffer.add_string buf
        (Printf.sprintf "  output %s <- v%d\n" p.Proc.port_name p.Proc.port_reg))
    dp.output_ports;
  Array.iteri
    (fun lvl nodes ->
      Buffer.add_string buf (Printf.sprintf "level %d:\n" lvl);
      List.iter
        (fun n ->
          Buffer.add_string buf
            (Printf.sprintf "  node %d [%s]\n" n.id (kind_name n.node_kind));
          List.iter
            (fun i ->
              Buffer.add_string buf ("    " ^ Instr.to_string i ^ "\n"))
            n.instrs)
        nodes)
    dp.levels;
  Buffer.contents buf

let to_dot (dp : t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %s_datapath {\n  rankdir=TB;\n" dp.proc.Proc.pname);
  List.iter
    (fun n ->
      let shape = if is_hard n then "ellipse" else "box" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=%s,label=\"%d: %s\\n%d instrs\"];\n" n.id
           shape n.id (kind_name n.node_kind) (List.length n.instrs)))
    dp.nodes;
  (* Edges: producer -> consumer per register. *)
  let producer = Hashtbl.create 64 in
  List.iter
    (fun n -> List.iter (fun d -> Hashtbl.replace producer d n.id) (node_defs n))
    dp.nodes;
  let edges = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt producer r with
          | Some src when src <> n.id -> Hashtbl.replace edges (src, n.id) ()
          | Some _ | None -> ())
        (node_inputs n))
    dp.nodes;
  Hashtbl.iter
    (fun (a, b) () ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" a b))
    edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
