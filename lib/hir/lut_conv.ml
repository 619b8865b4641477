(** Lookup-table support (paper §2, §4.2.4): function calls "whenever
    feasible made into a lookup table"; a LUT instruction instantiates a
    lookup-table component — a pre-existing one (e.g. cos) or a ROM IP with a
    text initialization file. *)

open Roccc_cfront.Ast
module Diag = Roccc_util.Diag

(** A materialized lookup table: [contents.(x)] is the output for input x
    (inputs are treated as unsigned addresses). *)
type table = {
  lut_name : string;
  in_kind : ikind;
  out_kind : ikind;
  contents : int64 array;
  preexisting : bool;
      (** true for library tables like cos — the code generator instantiates
          the vendor component rather than a generic ROM (paper §5: "ROCCC-
          generated VHDL code instantiates Xilinx IP cores" for LUTs). *)
}

let size (t : table) = Array.length t.contents

let signature (t : table) : string * Roccc_cfront.Semant.lut_signature =
  t.lut_name, { Roccc_cfront.Semant.lut_in = t.in_kind; lut_out = t.out_kind }

let lookup (t : table) (x : int64) : int64 =
  let n = Array.length t.contents in
  let i = Int64.to_int (Roccc_util.Bits.truncate_unsigned t.in_kind.bits x) in
  if i < 0 || i >= n then
    Diag.failf "lut conversion"
      "lookup table %s: index %d out of range" t.lut_name i
  else t.contents.(i)

let interp_binding (t : table) : string * (int64 -> int64) =
  t.lut_name, lookup t

(** The standard cosine table: input is a phase in [0, 2^in_bits) covering a
    full period; output is cos scaled to a signed [out_bits] value. *)
let cos_table ?(name = "cos") ~in_bits ~out_bits () : table =
  let n = 1 lsl in_bits in
  let amplitude = float_of_int ((1 lsl (out_bits - 1)) - 1) in
  let contents =
    Array.init n (fun x ->
        let angle = 2.0 *. Float.pi *. float_of_int x /. float_of_int n in
        let v = Float.round (cos angle *. amplitude) in
        Roccc_util.Bits.truncate_signed out_bits (Int64.of_float v))
  in
  { lut_name = name;
    in_kind = { signed = false; bits = in_bits };
    out_kind = { signed = true; bits = out_bits };
    contents;
    preexisting = true }

(** Arbitrary user table from explicit contents (e.g. loaded from a text
    initialization file). *)
let of_contents ~name ~in_kind ~out_kind contents : table =
  let expected = 1 lsl in_kind.bits in
  if Array.length contents <> expected then
    Diag.failf "lut conversion"
      "table %s: %d entries given, %d expected" name (Array.length contents)
      expected;
  { lut_name = name; in_kind; out_kind;
    contents = Array.map (Roccc_util.Bits.truncate ~signed:out_kind.signed out_kind.bits) contents;
    preexisting = false }

(** Parse a plain-text ROM initialization file: one integer per line
    (decimal, or hex with 0x), '#' comments allowed. "The only thing the
    user needs to do is to edit a pure text initialization file" (§4.2.4). *)
let of_init_text ~name ~in_kind ~out_kind (text : string) : table =
  let lines = String.split_on_char '\n' text in
  let values =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match Int64.of_string_opt line with
          | Some v -> Some v
          | None ->
            Diag.failf "lut conversion" "table %s: bad init line %S" name line)
      lines
  in
  of_contents ~name ~in_kind ~out_kind (Array.of_list values)

(** Render a table back to an initialization file. *)
let to_init_text (t : table) : string =
  let buf = Buffer.create (size t * 8) in
  Buffer.add_string buf
    (Printf.sprintf "# %s: %d entries, %d-bit %s output\n" t.lut_name (size t)
       t.out_kind.bits
       (if t.out_kind.signed then "signed" else "unsigned"));
  Array.iter
    (fun v ->
      Buffer.add_string buf (Int64.to_string v);
      Buffer.add_char buf '\n')
    t.contents;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Function -> table conversion                                        *)
(* ------------------------------------------------------------------ *)

let max_table_bits = 16

(** Convert a pure single-scalar-argument function into a table by
    exhaustive evaluation over its input domain. Feasible when the input is
    at most {!max_table_bits} wide and the function touches no arrays,
    globals or pointers. *)
let from_function (prog : program) (f : func) : table =
  let in_kind, pname =
    match f.params with
    | [ { pname; ptype = Tint k } ] -> k, pname
    | _ ->
      Diag.failf "lut conversion"
        "%s: LUT conversion needs exactly one scalar parameter" f.fname
  in
  let out_kind =
    match f.ret with
    | Tint k -> k
    | Tvoid | Tarray _ | Tptr _ ->
      Diag.failf "lut conversion"
        "%s: LUT conversion needs an integer return" f.fname
  in
  if in_kind.bits > max_table_bits then
    Diag.failf "lut conversion"
      "%s: input width %d too large for LUT conversion (max %d)" f.fname
      in_kind.bits max_table_bits;
  (* Purity: no array/pointer access, no globals, no intrinsics. *)
  let impure =
    fold_stmts
      (fun acc s ->
        acc
        ||
        match s with
        | Sassign ((Lindex _ | Lderef _), _) -> true
        | Sexpr (Call (g, _)) when is_intrinsic g -> true
        | _ -> false)
      (fun acc e ->
        acc
        ||
        match e with
        | Index _ | Deref _ -> true
        | Call (g, _) -> is_intrinsic g
        | _ -> false)
      false f.body
  in
  if impure then
    Diag.failf "lut conversion" "%s: not pure, cannot convert to a LUT" f.fname;
  let n = 1 lsl in_kind.bits in
  let rt = Roccc_cfront.Interp.create prog in
  let contents =
    Array.init n (fun x ->
        let arg =
          (* Address x maps to the signed value it encodes when signed. *)
          Roccc_util.Bits.truncate ~signed:in_kind.signed in_kind.bits
            (Int64.of_int x)
        in
        let outcome =
          Roccc_cfront.Interp.run rt f.fname ~scalars:[ pname, arg ]
        in
        match outcome.Roccc_cfront.Interp.return_value with
        | Some v ->
          Roccc_util.Bits.truncate ~signed:out_kind.signed out_kind.bits v
        | None ->
          Diag.failf "lut conversion"
            "%s: no return value during LUT conversion" f.fname)
  in
  { lut_name = f.fname; in_kind; out_kind; contents; preexisting = false }

(** Replace calls to [converted] functions by calls to their table name (a
    registered LUT intrinsic); the functions themselves can then be dropped
    from the program. Returns the rewritten program. *)
let convert_calls (prog : program) (tables : table list) : program =
  let names = List.map (fun t -> t.lut_name) tables in
  let rewrite e =
    match e with
    | Call (g, args) when List.mem g names -> Call (g, args)
    | e -> e
  in
  let funcs =
    List.filter_map
      (fun f ->
        if List.mem f.fname names then None
        else Some { f with body = map_stmts rewrite f.body })
      prog.funcs
  in
  { prog with funcs }
