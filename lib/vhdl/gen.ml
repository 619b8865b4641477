(** VHDL code generation (paper §4.2.4): one component per data-path node;
    single-assigned virtual registers become wires; instructions become
    combinational or sequential statements depending on whether the pipeliner
    latched them; LUT instructions instantiate ROM components initialized
    from text files; SNX/LPR pairs become feedback registers. *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc
module Graph = Roccc_datapath.Graph
module Widths = Roccc_datapath.Widths
module Pipeline = Roccc_datapath.Pipeline
module Lut_conv = Roccc_hir.Lut_conv

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let cat = String.concat ""

let reg_name r = "v" ^ string_of_int r

(* Signal name of register [r] delayed by [k] pipeline stages. *)
let delayed_name r k =
  if k = 0 then reg_name r
  else cat [ "v"; string_of_int r; "_d"; string_of_int k ]

let vtype_of_kind (kind : Instr.ikind) : Ast.vtype =
  if kind.Roccc_cfront.Ast.signed then Ast.Signed kind.Roccc_cfront.Ast.bits
  else Ast.Unsigned kind.Roccc_cfront.Ast.bits

let vtype_of (proc : Proc.t) (widths : Widths.t) (r : Instr.vreg) : Ast.vtype =
  let kind = Proc.reg_kind proc r in
  let w =
    match Widths.width_opt widths r with
    | Some w -> w
    | None -> kind.Roccc_cfront.Ast.bits
  in
  if kind.Roccc_cfront.Ast.signed then Ast.Signed w else Ast.Unsigned w

(* [to_signed(v, w)] or [to_unsigned(v, w)] for a [w]-bit value of [kind]. *)
let numeric_literal (kind : Instr.ikind) (w : int) (v : int64) : string =
  if kind.Roccc_cfront.Ast.signed then
    cat [ "to_signed("; Int64.to_string v; ", "; string_of_int w; ")" ]
  else
    cat
      [ "to_unsigned(";
        Int64.to_string (Roccc_util.Bits.truncate_unsigned w v);
        ", ";
        string_of_int w;
        ")" ]

(* Literal rendering for numeric_std. Wide literals use bit-string form:
   to_signed/to_unsigned take a VHDL integer (32-bit), which cannot carry
   a >32-bit constant. *)
let literal (kind : Instr.ikind) (w : int) (v : int64) : string =
  if w > 32 then
    cat
      [ (if kind.Roccc_cfront.Ast.signed then "signed" else "unsigned");
        "'(\"";
        Roccc_util.Bits.to_binary_string ~width:w v;
        "\")" ]
  else numeric_literal kind w v

(* resize helper text *)
let resized name w = cat [ "resize("; name; ", "; string_of_int w; ")" ]

(* ------------------------------------------------------------------ *)
(* Per-instruction RHS                                                 *)
(* ------------------------------------------------------------------ *)

(* Build the RHS expression for an instruction whose operands are available
   as signal texts [ops]. The result is resized to the destination width by
   the caller when needed. *)
let instr_rhs (i : Instr.instr) ~(dst_width : int) ~(ops : string list) : string =
  let w = string_of_int dst_width in
  let op1 () = List.nth ops 0 in
  let op2 () = List.nth ops 1 in
  let bin symbol =
    cat
      [ "resize("; resized (op1 ()) dst_width; " "; symbol; " ";
        resized (op2 ()) dst_width; ", "; w; ")" ]
  in
  let cmp symbol =
    cat [ "\"1\" when "; op1 (); " "; symbol; " "; op2 (); " else \"0\"" ]
  in
  let bitwise symbol =
    cat
      [ "resize("; op1 (); ", "; w; ") "; symbol; " resize("; op2 (); ", "; w; ")" ]
  in
  let logical symbol =
    cat
      [ "\"1\" when ("; op1 (); " /= 0) "; symbol; " ("; op2 ();
        " /= 0) else \"0\"" ]
  in
  match i.Instr.op with
  | Instr.Add -> bin "+"
  | Instr.Sub -> bin "-"
  | Instr.Mul -> cat [ "resize("; op1 (); " * "; op2 (); ", "; w; ")" ]
  | Instr.Div -> bin "/"
  | Instr.Rem -> bin "rem"
  | Instr.Neg -> cat [ "resize(-"; resized (op1 ()) dst_width; ", "; w; ")" ]
  | Instr.Shl ->
    cat [ "shift_left("; resized (op1 ()) dst_width; ", to_integer("; op2 (); "))" ]
  | Instr.Shr ->
    cat [ "resize(shift_right("; op1 (); ", to_integer("; op2 (); ")), "; w; ")" ]
  | Instr.Band -> bitwise "and"
  | Instr.Bor -> bitwise "or"
  | Instr.Bxor -> bitwise "xor"
  | Instr.Bnot -> cat [ "not resize("; op1 (); ", "; w; ")" ]
  | Instr.Slt -> cmp "<"
  | Instr.Sle -> cmp "<="
  | Instr.Sgt -> cmp ">"
  | Instr.Sge -> cmp ">="
  | Instr.Seq -> cmp "="
  | Instr.Sne -> cmp "/="
  | Instr.Land -> logical "and"
  | Instr.Lor -> logical "or"
  | Instr.Lnot -> cat [ "\"1\" when "; op1 (); " = 0 else \"0\"" ]
  | Instr.Mov -> resized (op1 ()) dst_width
  | Instr.Cvt -> resized (op1 ()) dst_width
  | Instr.Ldc v -> literal i.Instr.kind dst_width v
  | Instr.Mux ->
    cat
      [ resized (List.nth ops 1) dst_width; " when "; List.nth ops 0; " /= 0 else ";
        resized (List.nth ops 2) dst_width ]
  | Instr.Lpr _ | Instr.Snx _ -> errf "gen: feedback handled separately"
  | Instr.Lut _ -> errf "gen: LUT handled as component instance"

(* ------------------------------------------------------------------ *)
(* Node components                                                     *)
(* ------------------------------------------------------------------ *)

(* Data gathered per node for the top-level wiring. *)
type node_iface = {
  ni_id : int;
  ni_name : string;
  ni_in : (Instr.vreg * int) list;   (* (reg, delay) input ports *)
  ni_out : (Instr.vreg * int) list;  (* (reg, delay) output ports *)
}

let feedback_port name = "fb_" ^ name
let feedback_next_port name = cat [ "fb_"; name; "_next" ]

(* [add_new seen acc x] conses [x] onto the reversed list [acc] the first
   time it is seen. *)
let add_new seen acc x =
  if not (Hashtbl.mem seen x) then begin
    Hashtbl.add seen x ();
    acc := x :: !acc
  end

(* Generate the component for one data-path node. [consumed_delays r] lists
   the delayed versions of r that outside consumers need from this node. *)
let gen_node (proc : Proc.t) (widths : Widths.t) (p : Pipeline.t)
    (luts : Lut_conv.table list) (n : Graph.node)
    ~(consumed_delays : Instr.vreg -> int list) : Ast.design_unit * node_iface
    =
  let vtype r = vtype_of proc widths r in
  let name = cat [ proc.Proc.pname; "_node"; string_of_int n.Graph.id ] in
  let defs = Graph.node_defs n in
  let local = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace local d ()) defs;
  let is_local r = Hashtbl.mem local r in
  (* each instruction with its operands and their delays: the stage
     distance the pipeliner recorded for the edge ({!Pipeline.use_delay}) —
     the generator does not re-derive staging *)
  let uses =
    List.map
      (fun (i : Instr.instr) ->
        i, List.map (fun r -> r, Pipeline.use_delay p i r) i.Instr.srcs)
      n.Graph.instrs
  in
  (* inputs: (reg, delay) pairs needed by the node's instructions. Each
     local def gets a delay chain as deep as its deepest use, local or
     exported. *)
  let in_seen = Hashtbl.create 16 and in_pairs = ref [] in
  let chain_depth = Hashtbl.create 16 in
  let deepen d k =
    match Hashtbl.find_opt chain_depth d with
    | Some m when m >= k -> ()
    | _ -> Hashtbl.replace chain_depth d k
  in
  let lpr_seen = Hashtbl.create 1 and lpr_names = ref [] in
  let snx_seen = Hashtbl.create 1 and snx_names = ref [] in
  List.iter
    (fun ((i : Instr.instr), rs) ->
      (match i.Instr.op with
      | Instr.Lpr fb -> add_new lpr_seen lpr_names fb
      | Instr.Snx fb -> add_new snx_seen snx_names fb
      | _ -> ());
      List.iter
        (fun ((r, k) as use) ->
          if is_local r then deepen r k else add_new in_seen in_pairs use)
        rs)
    uses;
  let in_pairs = List.rev !in_pairs in
  let lpr_names = List.rev !lpr_names and snx_names = List.rev !snx_names in
  (* outputs: delayed versions of local defs that outside consumers need *)
  let out_pairs =
    List.concat_map
      (fun d -> List.map (fun k -> d, k) (consumed_delays d))
      defs
  in
  List.iter (fun (d, k) -> deepen d k) out_pairs;
  let max_delay d = Option.value (Hashtbl.find_opt chain_depth d) ~default:0 in
  let needs_clock =
    snx_names <> [] || List.exists (fun d -> max_delay d > 0) defs
  in
  let feedback_type fb =
    match
      List.find_opt (fun (nm, _, _) -> String.equal nm fb) proc.Proc.feedbacks
    with
    | Some (_, k, _) -> vtype_of_kind k
    | None -> vtype_of_kind Roccc_cfront.Ast.int32_kind
  in
  let port port_name port_dir port_type =
    { Ast.port_name; port_dir; port_type }
  in
  let ports =
    (if needs_clock then [ port "clk" Ast.Dir_in Ast.Std_logic ] else [])
    @ List.map
        (fun (r, k) -> port (delayed_name r k) Ast.Dir_in (vtype r))
        in_pairs
    @ List.map
        (fun fb -> port (feedback_port fb) Ast.Dir_in (feedback_type fb))
        lpr_names
    @ List.map
        (fun (r, k) -> port (delayed_name r k) Ast.Dir_out (vtype r))
        out_pairs
    @ List.map
        (fun fb -> port (feedback_next_port fb) Ast.Dir_out (feedback_type fb))
        snx_names
  in
  (* ---- architecture body ----
     Discipline: every locally computed value lives in an internal signal
     v<r>_i<k> (k = pipeline delay); out ports are driven by one final
     assignment each. Out ports are therefore never read internally. *)
  let internal_name r k = cat [ "v"; string_of_int r; "_i"; string_of_int k ] in
  (* reversed accumulators; [declared] holds (reg, delay) pairs *)
  let declared = ref [] and body = ref [] and clocked = ref [] in
  let emit c = body := c :: !body in
  let declared_seen = Hashtbl.create 64 in
  let declare r k = add_new declared_seen declared (r, k) in
  let lut_seen = Hashtbl.create 1 and lut_components = ref [] in
  let lut_count = ref 0 in
  let operand (r, k) =
    if is_local r then internal_name r k else delayed_name r k
  in
  List.iter
    (fun ((i : Instr.instr), rs) ->
      match i.Instr.op, i.Instr.dst with
      | Instr.Snx fb, None ->
        let src = operand (List.hd rs) in
        emit (Ast.Comment (cat [ "snx["; fb; "]" ]));
        emit
          (Ast.Assign
             ( feedback_next_port fb,
               resized src i.Instr.kind.Roccc_cfront.Ast.bits ))
      | Instr.Lpr fb, Some d ->
        declare d 0;
        emit (Ast.Assign (internal_name d 0, feedback_port fb))
      | Instr.Lut table, Some d ->
        declare d 0;
        let t =
          match
            List.find_opt (fun t -> String.equal t.Lut_conv.lut_name table) luts
          with
          | Some t -> t
          | None -> errf "gen: unregistered lookup table %s" table
        in
        let comp = "rom_" ^ t.Lut_conv.lut_name in
        let in_bits = t.Lut_conv.in_kind.Roccc_cfront.Ast.bits in
        if not (Hashtbl.mem lut_seen comp) then begin
          Hashtbl.add lut_seen comp ();
          lut_components :=
            ( comp,
              [ port "addr" Ast.Dir_in (Ast.Unsigned in_bits);
                port "data" Ast.Dir_out (vtype_of_kind t.Lut_conv.out_kind) ] )
            :: !lut_components
        end;
        let src = operand (List.hd rs) in
        let label = "lut_inst" ^ string_of_int !lut_count in
        incr lut_count;
        emit
          (Ast.Instance
             { inst_label = label;
               component = comp;
               port_map =
                 [ "addr", cat [ "unsigned("; resized src in_bits; ")" ];
                   "data", internal_name d 0 ] })
      | _, Some d ->
        declare d 0;
        let dst_width = Ast.vtype_width (vtype d) in
        let ops = List.map operand rs in
        emit (Ast.Assign (internal_name d 0, instr_rhs i ~dst_width ~ops))
      | _, None -> errf "gen: instruction without destination")
    uses;
  (* delay chains for local defs: sequential statements (the latches) *)
  List.iter
    (fun d ->
      for k = 1 to max_delay d do
        declare d k;
        clocked := (internal_name d k, internal_name d (k - 1)) :: !clocked
      done)
    defs;
  let latches =
    if !clocked = [] then []
    else
      [ Ast.Clocked_process
          { label = "latches";
            clock = "clk";
            reset = None;
            assignments = List.rev !clocked;
            reset_assignments = [] } ]
  in
  (* drive each out port from its internal signal *)
  let port_assigns =
    List.map
      (fun (r, k) -> Ast.Assign (delayed_name r k, internal_name r k))
      out_pairs
  in
  let entity = { Ast.entity_name = name; entity_ports = ports } in
  let arch =
    { Ast.arch_name = "rtl";
      of_entity = name;
      signals =
        List.rev_map
          (fun (r, k) -> { Ast.sig_name = internal_name r k; sig_type = vtype r })
          !declared;
      components = List.rev !lut_components;
      body = List.rev_append !body (latches @ port_assigns) }
  in
  ( { Ast.unit_entity = entity; unit_arch = arch },
    { ni_id = n.Graph.id; ni_name = name; ni_in = in_pairs; ni_out = out_pairs } )

(* ------------------------------------------------------------------ *)
(* ROM components                                                      *)
(* ------------------------------------------------------------------ *)

let gen_rom (t : Lut_conv.table) : Ast.design_unit =
  let name = "rom_" ^ t.Lut_conv.lut_name in
  let out_kind = t.Lut_conv.out_kind in
  let out_bits = out_kind.Roccc_cfront.Ast.bits in
  let ports =
    [ { Ast.port_name = "addr"; port_dir = Ast.Dir_in;
        port_type = Ast.Unsigned t.Lut_conv.in_kind.Roccc_cfront.Ast.bits };
      { Ast.port_name = "data"; port_dir = Ast.Dir_out;
        port_type = vtype_of_kind out_kind } ]
  in
  (* A behavioural ROM: with-select over the table contents (synthesis
     infers block RAM / distributed ROM; the text init file is carried
     alongside, paper §4.2.4). *)
  let n = Array.length t.Lut_conv.contents in
  let value i = numeric_literal out_kind out_bits t.Lut_conv.contents.(i) in
  let cases = List.init (max 0 (n - 1)) (fun i -> value i, string_of_int i) in
  let default = if n > 0 then value (n - 1) else "(others => '0')" in
  let arch =
    { Ast.arch_name = "rtl";
      of_entity = name;
      signals = [];
      components = [];
      body =
        [ Ast.Comment
            (Printf.sprintf
               "ROM %s: %d x %d-bit; contents in %s.init (text file)"
               t.Lut_conv.lut_name n out_bits t.Lut_conv.lut_name);
          Ast.Selected
            { target = "data";
              selector = "to_integer(addr)";
              cases;
              default } ]
    }
  in
  { Ast.unit_entity = { Ast.entity_name = name; entity_ports = ports };
    unit_arch = arch }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(** Generate the complete design for a pipelined data path. *)
let generate ?(luts = []) (p : Pipeline.t) : Ast.design =
  let dp = p.Pipeline.dp in
  let proc = dp.Graph.proc in
  let widths = p.Pipeline.widths in
  let vtype r = vtype_of proc widths r in
  (* Which delayed versions of each register do consumers outside the
     producing node need? *)
  let producer_node = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun d -> Hashtbl.replace producer_node d n.Graph.id)
        (Graph.node_defs n))
    dp.Graph.nodes;
  let consumed_seen = Hashtbl.create 64 in
  let external_delays : (Instr.vreg, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (i : Instr.instr) ->
          List.iter
            (fun r ->
              match Hashtbl.find_opt producer_node r with
              | Some owner when owner <> n.Graph.id ->
                let k = Pipeline.use_delay p i r in
                if not (Hashtbl.mem consumed_seen (r, k)) then begin
                  Hashtbl.add consumed_seen (r, k) ();
                  (* reversed: the first consumer's delay last *)
                  let cur = Hashtbl.find_opt external_delays r in
                  Hashtbl.replace external_delays r
                    (k :: Option.value cur ~default:[])
                end
              | Some _ | None -> ())
            i.Instr.srcs)
        n.Graph.instrs)
    dp.Graph.nodes;
  (* output ports consume their registers at delay 0 from the exit node *)
  let output_regs = Hashtbl.create 16 in
  List.iter
    (fun (op : Proc.port) -> Hashtbl.replace output_regs op.Proc.port_reg ())
    dp.Graph.output_ports;
  let consumed_delays r =
    let l =
      List.rev (Option.value (Hashtbl.find_opt external_delays r) ~default:[])
    in
    if Hashtbl.mem output_regs r && not (Hashtbl.mem consumed_seen (r, 0)) then
      0 :: l
    else l
  in
  let units_ifaces =
    List.map
      (fun n -> gen_node proc widths p luts n ~consumed_delays)
      dp.Graph.nodes
  in
  let node_units = List.map fst units_ifaces in
  (* ---- top-level entity ---- *)
  let top_port dir (pt : Proc.port) =
    { Ast.port_name = pt.Proc.port_name;
      port_dir = dir;
      port_type = vtype pt.Proc.port_reg }
  in
  let top_ports =
    [ { Ast.port_name = "clk"; port_dir = Ast.Dir_in; port_type = Ast.Std_logic };
      { Ast.port_name = "rst"; port_dir = Ast.Dir_in; port_type = Ast.Std_logic } ]
    @ List.map (top_port Ast.Dir_in) dp.Graph.input_ports
    @ List.map (top_port Ast.Dir_out) dp.Graph.output_ports
  in
  (* signals: every (reg, delay) that crosses node boundaries, as a
     reversed list of (reg, delay) pairs *)
  let declared_seen = Hashtbl.create 64 and declared = ref [] in
  let declare r k = add_new declared_seen declared (r, k) in
  List.iter
    (fun (_, ni) ->
      List.iter (fun (r, k) -> declare r k) ni.ni_in;
      List.iter (fun (r, k) -> declare r k) ni.ni_out)
    units_ifaces;
  (* feedback registers *)
  let fb_signals =
    List.concat_map
      (fun (name, kind, _) ->
        let t = vtype_of_kind kind in
        [ { Ast.sig_name = feedback_port name; sig_type = t };
          { Ast.sig_name = feedback_next_port name; sig_type = t } ])
      proc.Proc.feedbacks
  in
  (* input port registers feeding node inputs: input port name maps to the
     port reg signal *)
  List.iter
    (fun (pt : Proc.port) -> declare pt.Proc.port_reg 0)
    dp.Graph.input_ports;
  let input_assigns =
    List.map
      (fun (pt : Proc.port) ->
        Ast.Assign (reg_name pt.Proc.port_reg, pt.Proc.port_name))
      dp.Graph.input_ports
  in
  (* external input delay chains (inputs consumed at later stages): each
     declared v<r>_d<k> of an external input r is latched from v<r>_d<k-1> *)
  List.iter
    (fun (_, ni) ->
      List.iter
        (fun (r, k) ->
          if not (Hashtbl.mem producer_node r) then
            for j = 1 to k do
              declare r j
            done)
        ni.ni_in)
    units_ifaces;
  let input_align =
    List.fold_left
      (fun acc (r, k) ->
        if k >= 1 && not (Hashtbl.mem producer_node r) then
          (delayed_name r k, delayed_name r (k - 1)) :: acc
        else acc)
      [] !declared
  in
  let clocked label reset assignments reset_assignments =
    Ast.Clocked_process
      { label; clock = "clk"; reset; assignments; reset_assignments }
  in
  let input_align_process =
    if input_align = [] then [] else [ clocked "input_align" None input_align [] ]
  in
  (* feedback register process *)
  let feedback_process =
    if proc.Proc.feedbacks = [] then []
    else
      [ clocked "feedback_regs" (Some "rst")
          (List.map
             (fun (name, _, _) -> feedback_port name, feedback_next_port name)
             proc.Proc.feedbacks)
          (List.map
             (fun (name, kind, init) ->
               feedback_port name, literal kind kind.Roccc_cfront.Ast.bits init)
             proc.Proc.feedbacks) ]
  in
  (* node instances; formal and actual share the canonical signal names *)
  let component_seen = Hashtbl.create 16 and component_decls = ref [] in
  let instances =
    List.map
      (fun (u, ni) ->
        let ports = u.Ast.unit_entity.Ast.entity_ports in
        if not (Hashtbl.mem component_seen ni.ni_name) then begin
          Hashtbl.add component_seen ni.ni_name ();
          component_decls := (ni.ni_name, ports) :: !component_decls
        end;
        Ast.Instance
          { inst_label = "u_node" ^ string_of_int ni.ni_id;
            component = ni.ni_name;
            port_map =
              List.map
                (fun (pp : Ast.port) -> pp.Ast.port_name, pp.Ast.port_name)
                ports })
      units_ifaces
  in
  (* outputs: registered once at the boundary *)
  List.iter
    (fun (pt : Proc.port) -> declare pt.Proc.port_reg 0)
    dp.Graph.output_ports;
  let output_process =
    clocked "output_regs" None
      (List.map
         (fun (pt : Proc.port) -> pt.Proc.port_name, reg_name pt.Proc.port_reg)
         dp.Graph.output_ports)
      []
  in
  let top =
    { Ast.unit_entity =
        { Ast.entity_name = proc.Proc.pname; entity_ports = top_ports };
      unit_arch =
        { Ast.arch_name = "structural";
          of_entity = proc.Proc.pname;
          signals =
            List.rev_map
              (fun (r, k) ->
                { Ast.sig_name = delayed_name r k; sig_type = vtype r })
              !declared
            @ fb_signals;
          components = List.rev !component_decls;
          body =
            input_assigns @ input_align_process @ feedback_process @ instances
            @ [ output_process ] } }
  in
  let rom_units = List.map gen_rom luts in
  { Ast.design_name = proc.Proc.pname;
    units = rom_units @ node_units @ [ top ];
    rom_inits =
      List.map
        (fun t -> t.Lut_conv.lut_name, Lut_conv.to_init_text t)
        luts }
