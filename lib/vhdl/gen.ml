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
module Diag = Roccc_util.Diag

(* Tables keyed by register and by (register, delay) pair, hashed and
   compared without the polymorphic primitives. *)
module Regs = Hashtbl.Make (struct
  type t = Instr.vreg

  let equal = Int.equal
  let hash r = r
end)

module Pairs = Hashtbl.Make (struct
  type t = Instr.vreg * int

  let equal ((r, k) : t) (r', k') = r = r' && k = k'
  let hash ((r, k) : t) = (r * 65599) + k
end)

(* One shared value per signal of a design: each name, with the reference
   that reads it, is built once and reused by every unit that names it. *)
type names = {
  delayed : (Ast.name * Ast.expr) Pairs.t;
  internal : (Ast.name * Ast.expr) Pairs.t;
  feedback : (string, (Ast.name * Ast.expr) * (Ast.name * Ast.expr)) Hashtbl.t;
}

let shared tbl key make =
  match Pairs.find tbl key with
  | v -> v
  | exception Not_found ->
    let n = make key in
    let v = n, Ast.Ref n in
    Pairs.add tbl key v;
    v

(* Register [r] delayed by [k] pipeline stages (v<r>, v<r>_d<k>). *)
let delayed nm r k = shared nm.delayed (r, k) (fun (r, k) -> Ast.Reg (r, k))

(* A node's own copy of its def [r] at delay [k] (v<r>_i<k>). *)
let internal nm r k =
  shared nm.internal (r, k) (fun (r, k) -> Ast.Internal (r, k))

(* The feedback register of [fb] (fb_<fb>) and its next value
   (fb_<fb>_next). *)
let feedback nm fb =
  match Hashtbl.find_opt nm.feedback fb with
  | Some v -> v
  | None ->
    let make s =
      let n = Ast.Id s in
      n, Ast.Ref n
    in
    let v = make ("fb_" ^ fb), make (String.concat "" [ "fb_"; fb; "_next" ]) in
    Hashtbl.add nm.feedback fb v;
    v

let feedback_port nm fb = fst (feedback nm fb)
let feedback_next_port nm fb = snd (feedback nm fb)

let clk = Ast.Id "clk"
let rst = Ast.Id "rst"
let addr = Ast.Id "addr"
let data = Ast.Id "data"
let one = Ast.Bits "1"
let zero = Ast.Bits "0"

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
let numeric_literal (kind : Instr.ikind) (w : int) (v : int64) : Ast.expr =
  let signed = kind.Roccc_cfront.Ast.signed in
  Ast.Lit
    { signed;
      width = w;
      value = (if signed then v else Roccc_util.Bits.truncate_unsigned w v) }

(* Literal for numeric_std. Wide literals use bit-string form:
   to_signed/to_unsigned take a VHDL integer (32-bit), which cannot carry
   a >32-bit constant. *)
let literal (kind : Instr.ikind) (w : int) (v : int64) : Ast.expr =
  if w > 32 then
    Ast.Wide_lit { signed = kind.Roccc_cfront.Ast.signed; width = w; value = v }
  else numeric_literal kind w v

(* ------------------------------------------------------------------ *)
(* Per-instruction RHS                                                 *)
(* ------------------------------------------------------------------ *)

(* Build the RHS expression for an instruction whose operands are [ops].
   The result is resized to the destination width by the caller when
   needed. *)
let instr_rhs (i : Instr.instr) ~(dst_width : int) ~(ops : Ast.expr list) :
    Ast.expr =
  let w = dst_width in
  let op1 () = List.nth ops 0 in
  let op2 () = List.nth ops 1 in
  let resized e = Ast.Resize (e, w) in
  let bin op = resized (Ast.Binop (op, resized (op1 ()), resized (op2 ()))) in
  let cmp op = Ast.When (one, Ast.Binop (op, op1 (), op2 ()), zero) in
  let bitwise op = Ast.Binop (op, resized (op1 ()), resized (op2 ())) in
  let nonzero e = Ast.Paren (Ast.Binop (Ast.Ne, e, Ast.Int 0)) in
  let logical op =
    Ast.When (one, Ast.Binop (op, nonzero (op1 ()), nonzero (op2 ())), zero)
  in
  let shift f e = Ast.Call (f, [ e; Ast.Call ("to_integer", [ op2 () ]) ]) in
  match i.Instr.op with
  | Instr.Add -> bin Ast.Add
  | Instr.Sub -> bin Ast.Sub
  | Instr.Mul -> resized (Ast.Binop (Ast.Mul, op1 (), op2 ()))
  | Instr.Div -> bin Ast.Div
  | Instr.Rem -> bin Ast.Rem
  | Instr.Neg -> resized (Ast.Unop (Ast.Neg, resized (op1 ())))
  | Instr.Shl -> shift "shift_left" (resized (op1 ()))
  | Instr.Shr -> resized (shift "shift_right" (op1 ()))
  | Instr.Band -> bitwise Ast.And
  | Instr.Bor -> bitwise Ast.Or
  | Instr.Bxor -> bitwise Ast.Xor
  | Instr.Bnot -> Ast.Unop (Ast.Not, resized (op1 ()))
  | Instr.Slt -> cmp Ast.Lt
  | Instr.Sle -> cmp Ast.Le
  | Instr.Sgt -> cmp Ast.Gt
  | Instr.Sge -> cmp Ast.Ge
  | Instr.Seq -> cmp Ast.Eq
  | Instr.Sne -> cmp Ast.Ne
  | Instr.Land -> logical Ast.And
  | Instr.Lor -> logical Ast.Or
  | Instr.Lnot -> Ast.When (one, Ast.Binop (Ast.Eq, op1 (), Ast.Int 0), zero)
  | Instr.Mov | Instr.Cvt -> resized (op1 ())
  | Instr.Ldc v -> literal i.Instr.kind dst_width v
  | Instr.Mux ->
    Ast.When
      ( resized (List.nth ops 1),
        Ast.Binop (Ast.Ne, List.nth ops 0, Ast.Int 0),
        resized (List.nth ops 2) )
  | Instr.Lpr _ | Instr.Snx _ ->
    Diag.failf "vhdl generation" "gen: feedback handled separately"
  | Instr.Lut _ ->
    Diag.failf "vhdl generation" "gen: LUT handled as component instance"

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

(* [add_new seen acc x] conses [x] onto the reversed list [acc] the first
   time it is seen; [add_new_pair] does so for a (register, delay) pair. *)
let add_new seen acc x =
  if not (Hashtbl.mem seen x) then begin
    Hashtbl.add seen x ();
    acc := x :: !acc
  end

let add_new_pair seen acc x =
  if not (Pairs.mem seen x) then begin
    Pairs.add seen x ();
    acc := x :: !acc
  end

(* Generate the component for one data-path node. [uses] pairs each of
   its instructions with its operands and their delays: the stage distance
   the pipeliner recorded for the edge ({!Pipeline.use_delays}) — the
   generator does not re-derive staging. [consumed_delays r] lists the
   delayed versions of r that outside consumers need from this node. *)
let gen_node (nm : names) ~(vtype : Instr.vreg -> Ast.vtype) (proc : Proc.t)
    (luts : Lut_conv.table list) (n : Graph.node)
    ~(uses : (Instr.instr * (Instr.vreg * int) list) list)
    ~(consumed_delays : Instr.vreg -> int list) : Ast.design_unit * node_iface
    =
  let name = String.concat "" [ proc.Proc.pname; "_node"; string_of_int n.Graph.id ] in
  let defs = Graph.node_defs n in
  let local = Regs.create 16 in
  List.iter (fun d -> Regs.replace local d ()) defs;
  let is_local r = Regs.mem local r in
  (* inputs: (reg, delay) pairs needed by the node's instructions. Each
     local def gets a delay chain as deep as its deepest use, local or
     exported. *)
  let in_seen = Pairs.create 16 and in_pairs = ref [] in
  let chain_depth = Regs.create 16 in
  let deepen d k =
    match Regs.find_opt chain_depth d with
    | Some m when m >= k -> ()
    | _ -> Regs.replace chain_depth d k
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
          if is_local r then deepen r k else add_new_pair in_seen in_pairs use)
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
  let max_delay d = Option.value (Regs.find_opt chain_depth d) ~default:0 in
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
    (if needs_clock then [ port clk Ast.Dir_in Ast.Std_logic ] else [])
    @ List.map
        (fun (r, k) -> port (fst (delayed nm r k)) Ast.Dir_in (vtype r))
        in_pairs
    @ List.map
        (fun fb ->
          port (fst (feedback_port nm fb)) Ast.Dir_in (feedback_type fb))
        lpr_names
    @ List.map
        (fun (r, k) -> port (fst (delayed nm r k)) Ast.Dir_out (vtype r))
        out_pairs
    @ List.map
        (fun fb ->
          port (fst (feedback_next_port nm fb)) Ast.Dir_out (feedback_type fb))
        snx_names
  in
  (* ---- architecture body ----
     Discipline: every locally computed value lives in an internal signal
     v<r>_i<k> (k = pipeline delay); out ports are driven by one final
     assignment each. Out ports are therefore never read internally. *)
  (* reversed accumulators; [declared] holds (reg, delay) pairs *)
  let declared = ref [] and body = ref [] and clocked = ref [] in
  let emit c = body := c :: !body in
  let declared_seen = Pairs.create 64 in
  let declare r k = add_new_pair declared_seen declared (r, k) in
  let lut_seen = Hashtbl.create 1 and lut_components = ref [] in
  let lut_count = ref 0 in
  let operand (r, k) =
    snd (if is_local r then internal nm r k else delayed nm r k)
  in
  List.iter
    (fun ((i : Instr.instr), rs) ->
      match i.Instr.op, i.Instr.dst with
      | Instr.Snx fb, None ->
        let src = operand (List.hd rs) in
        emit (Ast.Comment (String.concat "" [ "snx["; fb; "]" ]));
        emit
          (Ast.Assign
             ( fst (feedback_next_port nm fb),
               Ast.Resize (src, i.Instr.kind.Roccc_cfront.Ast.bits) ))
      | Instr.Lpr fb, Some d ->
        declare d 0;
        emit (Ast.Assign (fst (internal nm d 0), snd (feedback_port nm fb)))
      | Instr.Lut table, Some d ->
        declare d 0;
        let t =
          match
            List.find_opt (fun t -> String.equal t.Lut_conv.lut_name table) luts
          with
          | Some t -> t
          | None ->
            Diag.failf "vhdl generation"
              "gen: unregistered lookup table %s" table
        in
        let comp = "rom_" ^ t.Lut_conv.lut_name in
        let in_bits = t.Lut_conv.in_kind.Roccc_cfront.Ast.bits in
        if not (Hashtbl.mem lut_seen comp) then begin
          Hashtbl.add lut_seen comp ();
          lut_components :=
            ( comp,
              [ port addr Ast.Dir_in (Ast.Unsigned in_bits);
                port data Ast.Dir_out (vtype_of_kind t.Lut_conv.out_kind) ] )
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
                 [ addr, Ast.Call ("unsigned", [ Ast.Resize (src, in_bits) ]);
                   data, snd (internal nm d 0) ] })
      | _, Some d ->
        declare d 0;
        let dst_width = Ast.vtype_width (vtype d) in
        let ops = List.map operand rs in
        emit (Ast.Assign (fst (internal nm d 0), instr_rhs i ~dst_width ~ops))
      | _, None ->
        Diag.failf "vhdl generation" "gen: instruction without destination")
    uses;
  (* delay chains for local defs: sequential statements (the latches) *)
  List.iter
    (fun d ->
      for k = 1 to max_delay d do
        declare d k;
        clocked := (fst (internal nm d k), snd (internal nm d (k - 1))) :: !clocked
      done)
    defs;
  let latches =
    if !clocked = [] then []
    else
      [ Ast.Clocked_process
          { label = "latches";
            clock = clk;
            reset = None;
            assignments = List.rev !clocked;
            reset_assignments = [] } ]
  in
  (* drive each out port from its internal signal *)
  let port_assigns =
    List.map
      (fun (r, k) -> Ast.Assign (fst (delayed nm r k), snd (internal nm r k)))
      out_pairs
  in
  let entity = { Ast.entity_name = name; entity_ports = ports } in
  let arch =
    { Ast.arch_name = "rtl";
      of_entity = name;
      signals =
        List.rev_map
          (fun (r, k) ->
            { Ast.sig_name = fst (internal nm r k); sig_type = vtype r })
          !declared;
      components = List.rev !lut_components;
      body = List.rev_append !body (latches @ port_assigns) }
  in
  ( { Ast.unit_entity = entity; unit_arch = arch },
    { ni_id = n.Graph.id; ni_name = name; ni_in = in_pairs; ni_out = out_pairs } )

(* ------------------------------------------------------------------ *)
(* ROM components                                                      *)
(* ------------------------------------------------------------------ *)

let rom_selector = Ast.Call ("to_integer", [ Ast.Ref addr ])

let gen_rom (t : Lut_conv.table) : Ast.design_unit =
  let name = "rom_" ^ t.Lut_conv.lut_name in
  let out_kind = t.Lut_conv.out_kind in
  let out_bits = out_kind.Roccc_cfront.Ast.bits in
  let ports =
    [ { Ast.port_name = addr; port_dir = Ast.Dir_in;
        port_type = Ast.Unsigned t.Lut_conv.in_kind.Roccc_cfront.Ast.bits };
      { Ast.port_name = data; port_dir = Ast.Dir_out;
        port_type = vtype_of_kind out_kind } ]
  in
  (* A behavioural ROM: with-select over the table contents (synthesis
     infers block RAM / distributed ROM; the text init file is carried
     alongside, paper §4.2.4). *)
  let n = Array.length t.Lut_conv.contents in
  let value i = numeric_literal out_kind out_bits t.Lut_conv.contents.(i) in
  let cases = List.init (max 0 (n - 1)) (fun i -> value i, i) in
  let default = if n > 0 then value (n - 1) else Ast.Zeros in
  let lut = t.Lut_conv.lut_name in
  let arch =
    { Ast.arch_name = "rtl";
      of_entity = name;
      signals = [];
      components = [];
      body =
        [ Ast.Comment
            (String.concat ""
               [ "ROM "; lut; ": "; string_of_int n; " x ";
                 string_of_int out_bits; "-bit; contents in "; lut;
                 ".init (text file)" ]);
          Ast.Selected { target = data; selector = rom_selector; cases; default } ]
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
  let vtypes = Regs.create 64 in
  let vtype r =
    match Regs.find_opt vtypes r with
    | Some t -> t
    | None ->
      let t = vtype_of proc widths r in
      Regs.add vtypes r t;
      t
  in
  let nm =
    { delayed = Pairs.create 64;
      internal = Pairs.create 64;
      feedback = Hashtbl.create 4 }
  in
  (* Which delayed versions of each register do consumers outside the
     producing node need? *)
  let producer_node = Regs.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun d -> Regs.replace producer_node d n.Graph.id)
        (Graph.node_defs n))
    dp.Graph.nodes;
  let node_uses =
    List.map
      (fun (n : Graph.node) ->
        n, List.map (fun i -> i, Pipeline.use_delays p i) n.Graph.instrs)
      dp.Graph.nodes
  in
  let consumed_seen = Pairs.create 64 in
  let external_delays : int list Regs.t = Regs.create 64 in
  List.iter
    (fun ((n : Graph.node), uses) ->
      List.iter
        (fun (_, rs) ->
          List.iter
            (fun (r, k) ->
              match Regs.find_opt producer_node r with
              | Some owner when owner <> n.Graph.id ->
                if not (Pairs.mem consumed_seen (r, k)) then begin
                  Pairs.add consumed_seen (r, k) ();
                  (* reversed: the first consumer's delay last *)
                  let cur = Regs.find_opt external_delays r in
                  Regs.replace external_delays r
                    (k :: Option.value cur ~default:[])
                end
              | Some _ | None -> ())
            rs)
        uses)
    node_uses;
  (* output ports consume their registers at delay 0 from the exit node *)
  let output_regs = Regs.create 16 in
  List.iter
    (fun (op : Proc.port) -> Regs.replace output_regs op.Proc.port_reg ())
    dp.Graph.output_ports;
  let consumed_delays r =
    let l =
      List.rev (Option.value (Regs.find_opt external_delays r) ~default:[])
    in
    if Regs.mem output_regs r && not (Pairs.mem consumed_seen (r, 0)) then
      0 :: l
    else l
  in
  let units_ifaces =
    List.map
      (fun (n, uses) -> gen_node nm ~vtype proc luts n ~uses ~consumed_delays)
      node_uses
  in
  let node_units = List.map fst units_ifaces in
  (* ---- top-level entity ---- *)
  let named = List.map (fun (pt : Proc.port) -> pt, Ast.id pt.Proc.port_name) in
  let inputs = named dp.Graph.input_ports
  and outputs = named dp.Graph.output_ports in
  let top_port dir ((pt : Proc.port), port_name) =
    { Ast.port_name; port_dir = dir; port_type = vtype pt.Proc.port_reg }
  in
  let top_ports =
    [ { Ast.port_name = clk; port_dir = Ast.Dir_in; port_type = Ast.Std_logic };
      { Ast.port_name = rst; port_dir = Ast.Dir_in; port_type = Ast.Std_logic } ]
    @ List.map (top_port Ast.Dir_in) inputs
    @ List.map (top_port Ast.Dir_out) outputs
  in
  (* signals: every (reg, delay) that crosses node boundaries, as a
     reversed list of (reg, delay) pairs *)
  let declared_seen = Pairs.create 64 and declared = ref [] in
  let declare r k = add_new_pair declared_seen declared (r, k) in
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
        [ { Ast.sig_name = fst (feedback_port nm name); sig_type = t };
          { Ast.sig_name = fst (feedback_next_port nm name); sig_type = t } ])
      proc.Proc.feedbacks
  in
  (* input port registers feeding node inputs: input port name maps to the
     port reg signal *)
  List.iter
    (fun (pt : Proc.port) -> declare pt.Proc.port_reg 0)
    dp.Graph.input_ports;
  let input_assigns =
    List.map
      (fun ((pt : Proc.port), port_name) ->
        Ast.Assign (fst (delayed nm pt.Proc.port_reg 0), Ast.Ref port_name))
      inputs
  in
  (* external input delay chains (inputs consumed at later stages): each
     declared v<r>_d<k> of an external input r is latched from v<r>_d<k-1> *)
  List.iter
    (fun (_, ni) ->
      List.iter
        (fun (r, k) ->
          if not (Regs.mem producer_node r) then
            for j = 1 to k do
              declare r j
            done)
        ni.ni_in)
    units_ifaces;
  let input_align =
    List.fold_left
      (fun acc (r, k) ->
        if k >= 1 && not (Regs.mem producer_node r) then
          (fst (delayed nm r k), snd (delayed nm r (k - 1))) :: acc
        else acc)
      [] !declared
  in
  let clocked label reset assignments reset_assignments =
    Ast.Clocked_process
      { label; clock = clk; reset; assignments; reset_assignments }
  in
  let input_align_process =
    if input_align = [] then [] else [ clocked "input_align" None input_align [] ]
  in
  (* feedback register process *)
  let feedback_process =
    if proc.Proc.feedbacks = [] then []
    else
      [ clocked "feedback_regs" (Some rst)
          (List.map
             (fun (name, _, _) ->
               fst (feedback_port nm name), snd (feedback_next_port nm name))
             proc.Proc.feedbacks)
          (List.map
             (fun (name, kind, init) ->
               ( fst (feedback_port nm name),
                 literal kind kind.Roccc_cfront.Ast.bits init ))
             proc.Proc.feedbacks) ]
  in
  (* node instances; formal and actual share the canonical signal names *)
  let actual = function
    | Ast.Reg (r, k) -> snd (delayed nm r k)
    | n -> Ast.Ref n
  in
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
                (fun (pp : Ast.port) -> pp.Ast.port_name, actual pp.Ast.port_name)
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
         (fun ((pt : Proc.port), port_name) ->
           port_name, snd (delayed nm pt.Proc.port_reg 0))
         outputs)
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
                { Ast.sig_name = fst (delayed nm r k); sig_type = vtype r })
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
    roms = luts }
