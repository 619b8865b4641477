(** Lowering the scalar data-path function (Figure 3c / 4c) onto the virtual
    machine IR. The dp functions produced by scalar replacement are loop-free
    (straight-line code plus if/else), so lowering builds a DAG-shaped CFG. *)

open Roccc_cfront.Ast
module K = Roccc_hir.Kernel

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module M = Map.Make (String)

type env = {
  proc : Proc.t;
  mutable vars : (Instr.vreg * ikind) M.t;  (* variable -> dedicated reg *)
  mutable cur : Proc.block;
  luts : (string * Roccc_cfront.Semant.lut_signature) list;
}

let emit env i = env.cur.Proc.instrs <- env.cur.Proc.instrs @ [ i ]

let const_kind (v : int64) : ikind =
  if Roccc_util.Bits.fits ~signed:true 32 v then int32_kind
  else { signed = true; bits = 64 }

(* Result kind of a binary arithmetic op, mirroring Semant.join_kinds. *)
let join_kinds (a : ikind) (b : ikind) : ikind =
  let bits = max 32 (max a.bits b.bits) in
  let signed =
    if a.bits = b.bits then a.signed && b.signed
    else if a.bits > b.bits then a.signed
    else b.signed
  in
  { signed; bits }

let binop_opcode : binop -> Instr.opcode = function
  | Add -> Instr.Add | Sub -> Instr.Sub | Mul -> Instr.Mul
  | Div -> Instr.Div | Mod -> Instr.Rem
  | Shl -> Instr.Shl | Shr -> Instr.Shr
  | Band -> Instr.Band | Bor -> Instr.Bor | Bxor -> Instr.Bxor
  | Lt -> Instr.Slt | Le -> Instr.Sle | Gt -> Instr.Sgt | Ge -> Instr.Sge
  | Eq -> Instr.Seq | Ne -> Instr.Sne
  | Land -> Instr.Land | Lor -> Instr.Lor

let var_reg env name =
  match M.find_opt name env.vars with
  | Some (r, k) -> r, k
  | None -> errf "unbound variable %s" name

let bind_var env name kind =
  let r = Proc.fresh_reg env.proc kind in
  env.vars <- M.add name (r, kind) env.vars;
  r

(* Lower an expression; returns the register holding its value and its kind. *)
let rec lower_expr env (e : expr) : Instr.vreg * ikind =
  match e with
  | Const v ->
    let kind = const_kind v in
    let dst = Proc.fresh_reg env.proc kind in
    emit env (Instr.make ~dst (Instr.Ldc v) [] kind);
    dst, kind
  | Var x -> var_reg env x
  | Deref x -> var_reg env x
  | Index (a, _) -> errf "array access %s survived scalar replacement" a
  | Cast (k, inner) ->
    let src, _ = lower_expr env inner in
    let dst = Proc.fresh_reg env.proc k in
    emit env (Instr.make ~dst Instr.Cvt [ src ] k);
    dst, k
  | Unop (op, inner) ->
    let src, k = lower_expr env inner in
    let opcode, kind =
      match op with
      | Neg -> Instr.Neg, join_kinds k int32_kind
      | Bnot -> Instr.Bnot, join_kinds k int32_kind
      | Lnot -> Instr.Lnot, bool_kind
    in
    let dst = Proc.fresh_reg env.proc kind in
    emit env (Instr.make ~dst opcode [ src ] kind);
    dst, kind
  | Binop (op, a, b) ->
    let ra, ka = lower_expr env a in
    let rb, kb = lower_expr env b in
    let kind =
      if is_comparison op || is_logical op then bool_kind
      else join_kinds ka kb
    in
    let dst = Proc.fresh_reg env.proc kind in
    emit env (Instr.make ~dst (binop_opcode op) [ ra; rb ] kind);
    dst, kind
  | Call (f, [ Var x ]) when String.equal f roccc_load_prev ->
    let _, kind = var_reg env x in
    let dst = Proc.fresh_reg env.proc kind in
    emit env (Instr.make ~dst (Instr.Lpr x) [] kind);
    dst, kind
  | Call (f, args) -> (
    match List.assoc_opt f env.luts with
    | Some s -> (
      match args with
      | [ a ] ->
        let src, _ = lower_expr env a in
        let dst = Proc.fresh_reg env.proc s.lut_out in
        emit env (Instr.make ~dst (Instr.Lut f) [ src ] s.lut_out);
        dst, s.lut_out
      | _ -> errf "lookup table %s needs one argument" f)
    | None -> errf "residual call to %s (inline or register a LUT)" f)

(* Assign the value in [src] (of kind [src_kind]) to variable [name]: a mov
   when kinds agree, otherwise an explicit width conversion. *)
let assign_var env name (src : Instr.vreg) (src_kind : ikind) =
  let dst, kind = var_reg env name in
  let op = if equal_ikind kind src_kind then Instr.Mov else Instr.Cvt in
  emit env (Instr.make ~dst op [ src ] kind)

let rec lower_stmts env stmts = List.iter (lower_stmt env) stmts

and lower_stmt env (s : stmt) : unit =
  match s with
  | Sdecl (Tint kind, name, init) -> (
    let _ = bind_var env name kind in
    match init with
    | Some e ->
      let src, sk = lower_expr env e in
      assign_var env name src sk
    | None -> ())
  | Sdecl ((Tarray _ | Tptr _ | Tvoid), name, _) ->
    errf "unsupported local declaration %s" name
  | Sassign (Lvar x, e) | Sassign (Lderef x, e) ->
    let src, sk = lower_expr env e in
    assign_var env x src sk
  | Sassign (Lindex (a, _), _) ->
    errf "array store %s survived scalar replacement" a
  | Sexpr (Call (f, [ Var x; v ])) when String.equal f roccc_store2next ->
    let src, _ = lower_expr env v in
    let _, kind = var_reg env x in
    emit env { Instr.op = Instr.Snx x; dst = None; srcs = [ src ]; kind };
    (* Subsequent reads of x in this iteration see the stored value. *)
    let dst, _ = var_reg env x in
    emit env (Instr.make ~dst Instr.Mov [ src ] kind)
  | Sexpr _ -> ()  (* other expression statements have no effect *)
  | Sreturn _ -> ()  (* dp functions return through pointer outputs *)
  | Sif (cond, th, el) ->
    let rcond, _ = lower_expr env cond in
    let then_block = Proc.fresh_block env.proc in
    let else_block = Proc.fresh_block env.proc in
    let join_block = Proc.fresh_block env.proc in
    env.cur.Proc.term <-
      Proc.Branch (rcond, then_block.Proc.label, else_block.Proc.label);
    env.cur <- then_block;
    lower_stmts env th;
    env.cur.Proc.term <- Proc.Jump join_block.Proc.label;
    env.cur <- else_block;
    lower_stmts env el;
    env.cur.Proc.term <- Proc.Jump join_block.Proc.label;
    env.cur <- join_block
  | Sfor _ -> errf "loops must be handled before data-path lowering"

(** Lower a kernel's data-path function into a VM procedure. Inputs are the
    window scalars and scalar live-ins; outputs are the pointer ports;
    feedback variables become LPR/SNX-threaded signals. *)
let lower_kernel ?(luts = []) (k : K.t) : Proc.t =
  let f = k.K.dp in
  let feedbacks =
    List.map (fun fb -> fb.K.fb_name, fb.K.fb_kind, fb.K.fb_init) k.K.feedback
  in
  let proc = Proc.create ~feedbacks f.fname in
  let entry_block = Proc.fresh_block proc in
  let env = { proc; vars = M.empty; cur = entry_block; luts } in
  (* Bind parameters. *)
  let inputs, outputs =
    List.fold_left
      (fun (ins, outs) p ->
        match p.ptype with
        | Tint kind ->
          let r = bind_var env p.pname kind in
          ( ins @ [ { Proc.port_name = p.pname; port_reg = r; port_kind = kind } ],
            outs )
        | Tptr kind ->
          let r = bind_var env p.pname kind in
          (* Outputs start at 0; the port reg is rebound to the reaching
             definition after SSA conversion. *)
          emit env (Instr.make ~dst:r (Instr.Ldc 0L) [] kind);
          ( ins,
            outs @ [ { Proc.port_name = p.pname; port_reg = r; port_kind = kind } ] )
        | Tarray _ | Tvoid ->
          errf "dp parameter %s must be scalar or pointer" p.pname)
      ([], []) f.params
  in
  (* Bind feedback variables as ordinary variables; LPR/SNX handle the
     cross-iteration transfer, and a leading Lpr materializes the previous
     value for kernels that read the variable without the macro (exports). *)
  List.iter
    (fun fb ->
      let r = bind_var env fb.K.fb_name fb.K.fb_kind in
      emit env (Instr.make ~dst:r (Instr.Lpr fb.K.fb_name) [] fb.K.fb_kind))
    k.K.feedback;
  lower_stmts env f.body;
  env.cur.Proc.term <- Proc.Ret;
  let proc = env.proc in
  (* Record ports. *)
  let outputs =
    List.map
      (fun (o : Proc.port) ->
        match M.find_opt o.Proc.port_name env.vars with
        | Some (r, _) -> { o with Proc.port_reg = r }
        | None -> o)
      outputs
  in
  { proc with Proc.inputs; outputs }
