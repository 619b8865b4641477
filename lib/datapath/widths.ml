(** Bit-width inference (paper §4.2.4 / §5): "The compiler infers the inner
    signals' bit size automatically... We derive bit width only based on port
    size and opcodes."

    Implemented as a forward interval analysis: every signal carries a
    conservative value interval derived from the port kinds and opcodes
    (saturating 64-bit arithmetic); the physical width of a signal is the
    number of bits its interval needs under the signal's declared
    signedness, capped at the declared C kind (the software semantics
    truncates there). Soundness is checked by the test suite: evaluating the
    data path with every intermediate truncated to its inferred width must
    give identical results. *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

module IM = Map.Make (Int)
module Diag = Roccc_util.Diag

(** Inferred physical width of every register in the data path. *)
type t = int IM.t

let width (w : t) (r : Instr.vreg) : int =
  match IM.find_opt r w with
  | Some bits -> bits
  | None -> Diag.failf "width inference" "widths: no inferred width for v%d" r

let width_opt (w : t) (r : Instr.vreg) : int option = IM.find_opt r w

(* ------------------------------------------------------------------ *)
(* Saturating interval arithmetic                                      *)
(* ------------------------------------------------------------------ *)

type interval = { lo : int64; hi : int64 }

(* Guard band so interval endpoints never overflow int64 during ops. *)
let sat_min = Int64.neg (Int64.shift_left 1L 55)
let sat_max = Int64.shift_left 1L 55

let clamp v = Int64.max sat_min (Int64.min sat_max v)

let make_interval lo hi = { lo = clamp lo; hi = clamp hi }

(* Widest kind the interval domain can represent exactly: beyond the
   saturation guard band the kind's own range does not fit in the domain
   (and the unsigned 64-bit maximum is not even representable in int64),
   so wide kinds get the whole band — the "unknown" element. *)
let interval_kind_bits = 55

let of_kind (k : Instr.ikind) : interval =
  if k.Roccc_cfront.Ast.bits > interval_kind_bits then
    if k.Roccc_cfront.Ast.signed then { lo = sat_min; hi = sat_max }
    else { lo = 0L; hi = sat_max }
  else
    make_interval
      (Roccc_util.Bits.min_value ~signed:k.Roccc_cfront.Ast.signed
         k.Roccc_cfront.Ast.bits)
      (Roccc_util.Bits.max_value ~signed:k.Roccc_cfront.Ast.signed
         k.Roccc_cfront.Ast.bits)

let hull a b = make_interval (Int64.min a.lo b.lo) (Int64.max a.hi b.hi)

let nonneg i = Int64.compare i.lo 0L >= 0

let sat_add a b = clamp (Int64.add a b)
let sat_sub a b = clamp (Int64.sub a b)
let sat_mul a b =
  (* detect overflow by division check on the clamped domain *)
  if Int64.equal a 0L || Int64.equal b 0L then 0L
  else
    let p = Int64.mul a b in
    if Int64.equal (Int64.div p a) b then clamp p
    else if (Int64.compare a 0L > 0) = (Int64.compare b 0L > 0) then sat_max
    else sat_min

let iv_add a b = make_interval (sat_add a.lo b.lo) (sat_add a.hi b.hi)
let iv_sub a b = make_interval (sat_sub a.lo b.hi) (sat_sub a.hi b.lo)
let iv_neg a = make_interval (Int64.neg a.hi) (Int64.neg a.lo)

let iv_mul a b =
  let products =
    [ sat_mul a.lo b.lo; sat_mul a.lo b.hi; sat_mul a.hi b.lo;
      sat_mul a.hi b.hi ]
  in
  make_interval
    (List.fold_left Int64.min (List.hd products) products)
    (List.fold_left Int64.max (List.hd products) products)

let max_abs i = Int64.max (Int64.abs i.lo) (Int64.abs i.hi)

(* Signed bits needed to represent every value of the interval. *)
let signed_bits (i : interval) : int =
  max (Roccc_util.Bits.bits_for_signed i.lo)
    (Roccc_util.Bits.bits_for_signed i.hi)

(* Full signed range of k bits. *)
let signed_range k =
  let k = max 1 (min 62 k) in
  make_interval
    (Int64.neg (Int64.shift_left 1L (k - 1)))
    (Int64.sub (Int64.shift_left 1L (k - 1)) 1L)

(* Result interval per opcode. [consts] maps registers to known constant
   values for shift/div precision. *)
let op_interval (op : Instr.opcode) (kind : Instr.ikind)
    ~(const_of : int -> int64 option) (srcs : interval list) : interval =
  let s n = List.nth srcs n in
  match op with
  | Instr.Add -> iv_add (s 0) (s 1)
  | Instr.Sub -> iv_sub (s 0) (s 1)
  | Instr.Neg -> iv_neg (s 0)
  | Instr.Mul -> iv_mul (s 0) (s 1)
  | Instr.Div ->
    (* |a / b| <= |a|, plus one for -min / -1 *)
    let m = sat_add (max_abs (s 0)) 1L in
    make_interval (Int64.neg m) m
  | Instr.Rem ->
    let m = Int64.min (max_abs (s 0)) (max_abs (s 1)) in
    make_interval (Int64.neg m) m
  | Instr.Shl -> (
    match const_of 1 with
    | Some c when Int64.compare c 0L >= 0 && Int64.compare c 62L <= 0 ->
      let f = Int64.shift_left 1L (Int64.to_int c) in
      iv_mul (s 0) (make_interval f f)
    | _ ->
      (* unknown shift: bounded only by the declared kind *)
      of_kind kind)
  | Instr.Shr ->
    (* magnitude shrinks toward zero *)
    make_interval (Int64.min (s 0).lo 0L) (Int64.max (s 0).hi 0L)
  | Instr.Band ->
    if nonneg (s 0) || nonneg (s 1) then
      (* result of AND with a non-negative operand is within [0, that hi] *)
      let bound =
        if nonneg (s 0) && nonneg (s 1) then
          Int64.min (s 0).hi (s 1).hi
        else if nonneg (s 0) then (s 0).hi
        else (s 1).hi
      in
      make_interval 0L bound
    else signed_range (max (signed_bits (s 0)) (signed_bits (s 1)))
  | Instr.Bor | Instr.Bxor ->
    if nonneg (s 0) && nonneg (s 1) then
      (* set bits stay within the wider operand's bit count *)
      let bits =
        max
          (Roccc_util.Bits.bits_for_unsigned (s 0).hi)
          (Roccc_util.Bits.bits_for_unsigned (s 1).hi)
      in
      make_interval 0L (Roccc_util.Bits.mask (min 62 bits))
    else signed_range (max (signed_bits (s 0)) (signed_bits (s 1)))
  | Instr.Bnot ->
    (* ~a = -a - 1, exactly *)
    make_interval (sat_sub (Int64.neg (s 0).hi) 1L)
      (sat_sub (Int64.neg (s 0).lo) 1L)
  | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge | Instr.Seq | Instr.Sne
  | Instr.Land | Instr.Lor | Instr.Lnot -> make_interval 0L 1L
  | Instr.Mov -> s 0
  | Instr.Cvt -> s 0  (* clipped against the kind by the caller *)
  | Instr.Ldc v -> make_interval v v
  | Instr.Mux -> hull (s 1) (s 2)
  | Instr.Lpr _ | Instr.Snx _ | Instr.Lut _ -> of_kind kind

(* An interval endpoint pushed onto the saturation guard band has lost
   the true bound: the only sound width is the declared kind's. (For
   narrow kinds a saturated interval always escapes the kind range anyway,
   so this extra test changes nothing below [interval_kind_bits].) *)
let saturated (i : interval) : bool =
  Int64.compare i.lo sat_min <= 0 || Int64.compare i.hi sat_max >= 0

(* Width of an interval under the declared signedness, capped at the kind.
   If the interval escapes the kind's range the hardware wraps exactly like
   the software semantics, so the kind width is the answer. *)
let width_of_interval (kind : Instr.ikind) (i : interval) : int * interval =
  let kind_iv = of_kind kind in
  if saturated i then kind.Roccc_cfront.Ast.bits, kind_iv
  else if
    Int64.compare i.lo kind_iv.lo >= 0 && Int64.compare i.hi kind_iv.hi <= 0
  then begin
    let bits =
      if kind.Roccc_cfront.Ast.signed then signed_bits i
      else Roccc_util.Bits.bits_for_unsigned (Int64.max 0L i.hi)
    in
    max 1 (min bits kind.Roccc_cfront.Ast.bits), i
  end
  else kind.Roccc_cfront.Ast.bits, kind_iv

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

(** Infer widths for a built data path. Input ports start at their declared
    port ranges; every instruction's interval follows the opcode; widths are
    capped at the declared C kind. *)
let infer (dp : Graph.t) : t =
  let intervals : interval IM.t ref = ref IM.empty in
  let widths = ref IM.empty in
  let consts = Graph.constant_values dp in
  List.iter
    (fun (p : Proc.port) ->
      intervals := IM.add p.Proc.port_reg (of_kind p.Proc.port_kind) !intervals;
      widths :=
        IM.add p.Proc.port_reg p.Proc.port_kind.Roccc_cfront.Ast.bits !widths)
    dp.Graph.input_ports;
  let src_interval r =
    match IM.find_opt r !intervals with
    | Some i -> i
    | None ->
      Diag.failf "width inference" "widths: operand v%d inferred out of order" r
  in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (i : Instr.instr) ->
          let srcs = List.map src_interval i.Instr.srcs in
          let const_of k =
            match List.nth_opt i.Instr.srcs k with
            | Some r -> Hashtbl.find_opt consts r
            | None -> None
          in
          match i.Instr.dst with
          | Some d ->
            let iv = op_interval i.Instr.op i.Instr.kind ~const_of srcs in
            let bits, iv = width_of_interval i.Instr.kind iv in
            intervals := IM.add d iv !intervals;
            widths := IM.add d bits !widths
          | None -> ())
        n.Graph.instrs)
    dp.Graph.nodes;
  !widths

(** Widths with inference disabled: every signal at its declared C kind —
    the baseline for the bit-narrowing ablation. *)
let declared (dp : Graph.t) : t =
  let widths = ref IM.empty in
  List.iter
    (fun (p : Proc.port) ->
      widths :=
        IM.add p.Proc.port_reg p.Proc.port_kind.Roccc_cfront.Ast.bits !widths)
    dp.Graph.input_ports;
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.Instr.dst with
          | Some d ->
            widths := IM.add d i.Instr.kind.Roccc_cfront.Ast.bits !widths
          | None -> ())
        n.Graph.instrs)
    dp.Graph.nodes;
  !widths

(** Total inferred signal bits (a proxy for wiring/register pressure used by
    the area model and the ablation bench). *)
let total_bits (w : t) : int = IM.fold (fun _ bits acc -> acc + bits) w 0
