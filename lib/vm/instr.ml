(** The SUIFvm-like virtual-machine instruction set (paper §4.2.1): assembly-
    style three-address instructions over virtual registers, extended with
    the ROCCC-specific opcodes LPR (load previous), SNX (store next), LUT
    (table lookup) and MUX (hardware select, materializing SSA phis). *)

module Diag = Roccc_util.Diag

type vreg = int

type ikind = Roccc_cfront.Ast.ikind

type opcode =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | Band | Bor | Bxor
  | Bnot | Neg
  | Slt | Sle | Sgt | Sge | Seq | Sne
  | Land | Lor | Lnot
  | Mov                (** register copy *)
  | Ldc of int64       (** load constant *)
  | Cvt                (** width/signedness conversion (truncate/extend) *)
  | Mux                (** srcs = [sel; a; b]: dst = sel ? a : b *)
  | Lpr of string      (** load previous iteration's value of a feedback *)
  | Snx of string      (** store this iteration's value of a feedback *)
  | Lut of string      (** lookup-table read *)

type instr = {
  op : opcode;
  dst : vreg option;   (** None only for Snx *)
  srcs : vreg list;
  kind : ikind;        (** result kind (or stored kind for Snx) *)
}

let arity = function
  | Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor
  | Slt | Sle | Sgt | Sge | Seq | Sne | Land | Lor -> 2
  | Bnot | Neg | Lnot | Mov | Cvt | Lut _ | Snx _ -> 1
  | Ldc _ | Lpr _ -> 0
  | Mux -> 3

let is_commutative = function
  | Add | Mul | Band | Bor | Bxor | Seq | Sne | Land | Lor -> true
  | Sub | Div | Rem | Shl | Shr | Bnot | Neg | Slt | Sle | Sgt | Sge
  | Lnot | Mov | Ldc _ | Cvt | Mux | Lpr _ | Snx _ | Lut _ -> false

let opcode_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Shl -> "shl" | Shr -> "shr"
  | Band -> "and" | Bor -> "or" | Bxor -> "xor"
  | Bnot -> "not" | Neg -> "neg"
  | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"
  | Seq -> "seq" | Sne -> "sne"
  | Land -> "land" | Lor -> "lor" | Lnot -> "lnot"
  | Mov -> "mov"
  | Ldc v -> Printf.sprintf "ldc %Ld" v
  | Cvt -> "cvt"
  | Mux -> "mux"
  | Lpr s -> Printf.sprintf "lpr[%s]" s
  | Snx s -> Printf.sprintf "snx[%s]" s
  | Lut s -> Printf.sprintf "lut[%s]" s

let to_string (i : instr) : string =
  let dst = match i.dst with Some d -> Printf.sprintf "v%d = " d | None -> "" in
  let srcs = String.concat ", " (List.map (Printf.sprintf "v%d") i.srcs) in
  Printf.sprintf "%s%s %s :%s%d" dst (opcode_name i.op) srcs
    (if i.kind.signed then "s" else "u")
    i.kind.bits

let make ?(dst : vreg option) op srcs kind : instr =
  if List.length srcs <> arity op then
    invalid_arg
      (Printf.sprintf "Instr.make: %s expects %d operand(s), got %d"
         (opcode_name op) (arity op) (List.length srcs));
  (match op, dst with
  | Snx _, Some _ -> invalid_arg "Instr.make: snx has no destination"
  | Snx _, None -> ()
  | _, None -> invalid_arg "Instr.make: missing destination"
  | _, Some _ -> ());
  { op; dst; srcs; kind }

(* Evaluate an opcode over already-fetched operand values; [lookup] resolves
   LUT names, [feedback] resolves LPR names. Width truncation is applied by
   the caller using [kind]. *)
let eval_op ~(lut : string -> int64 -> int64) ~(lpr : string -> int64)
    (op : opcode) (operands : int64 list) : int64 =
  let bool_to_i64 p = if p then 1L else 0L in
  let nonzero v = not (Int64.equal v 0L) in
  match op, operands with
  | Add, [ a; b ] -> Int64.add a b
  | Sub, [ a; b ] -> Int64.sub a b
  | Mul, [ a; b ] -> Int64.mul a b
  | Div, [ a; b ] ->
    if Int64.equal b 0L then
      Diag.failf "vm" "division by zero" else Int64.div a b
  | Rem, [ a; b ] ->
    if Int64.equal b 0L then Diag.failf "vm" "modulo by zero" else Int64.rem a b
  | Shl, [ a; b ] -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Shr, [ a; b ] -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Band, [ a; b ] -> Int64.logand a b
  | Bor, [ a; b ] -> Int64.logor a b
  | Bxor, [ a; b ] -> Int64.logxor a b
  | Bnot, [ a ] -> Int64.lognot a
  | Neg, [ a ] -> Int64.neg a
  | Slt, [ a; b ] -> bool_to_i64 (Int64.compare a b < 0)
  | Sle, [ a; b ] -> bool_to_i64 (Int64.compare a b <= 0)
  | Sgt, [ a; b ] -> bool_to_i64 (Int64.compare a b > 0)
  | Sge, [ a; b ] -> bool_to_i64 (Int64.compare a b >= 0)
  | Seq, [ a; b ] -> bool_to_i64 (Int64.equal a b)
  | Sne, [ a; b ] -> bool_to_i64 (not (Int64.equal a b))
  | Land, [ a; b ] -> bool_to_i64 (nonzero a && nonzero b)
  | Lor, [ a; b ] -> bool_to_i64 (nonzero a || nonzero b)
  | Lnot, [ a ] -> bool_to_i64 (not (nonzero a))
  | Mov, [ a ] | Cvt, [ a ] -> a
  | Ldc v, [] -> v
  | Mux, [ sel; a; b ] -> if nonzero sel then a else b
  | Lpr name, [] -> lpr name
  | Lut name, [ a ] -> lut name a
  | Snx _, [ _ ] -> Diag.failf "vm" "snx handled by the evaluator"
  | _ ->
    Diag.failf "vm" "arity mismatch for %s: got %d operand(s), expected %d"
      (opcode_name op) (List.length operands) (arity op)
