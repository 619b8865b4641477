(* Content-addressed cache keys: a stage output is identified by a digest
   of everything that determines it — the C source, the entry function,
   the (stage-relevant) compile options, the registered lookup tables and
   the stage name. Two jobs with equal fingerprints may share one cached
   result; any changed input changes the digest. *)

module Lut_conv = Roccc_hir.Lut_conv
module Ast = Roccc_cfront.Ast

type t = string

let kind_part (k : Ast.ikind) =
  Printf.sprintf "%c%d" (if k.Ast.signed then 's' else 'u') k.Ast.bits

(* A table's identity is its name, kinds and full contents — a user table
   rebuilt with different values must miss the cache. *)
let lut_part (t : Lut_conv.table) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.Lut_conv.lut_name;
  Buffer.add_char buf ':';
  Buffer.add_string buf (kind_part t.Lut_conv.in_kind);
  Buffer.add_string buf (kind_part t.Lut_conv.out_kind);
  Buffer.add_string buf (if t.Lut_conv.preexisting then "p" else "-");
  Array.iter
    (fun v ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Int64.to_string v))
    t.Lut_conv.contents;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The cache format and compiler version. It must move whenever a pass's
   output changes under an unchanged option fingerprint, or an existing
   cache directory would keep serving stale designs. *)
let version = "roccc-cache-v5"

let make ~(selection : string) ~(stage : string) ~(source : string)
    ~(entry : string) ~(options_fp : string) ~(luts : Lut_conv.table list) :
    t =
  let parts =
    [ version; stage; entry; options_fp; selection;
      Digest.to_hex (Digest.string source) ]
    @ List.map lut_part luts
  in
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* Per-pass chained keys: the key after pass N is a digest of the key
   after pass N-1, the pass name and that pass's own option fingerprint.
   Equal chains mean "same pipeline state" — a back-end option sweep keeps
   every mid-end chain link equal, so all mid-end states are shared. *)

let seed ~(source : string) ~(entry : string)
    ~(luts : Lut_conv.table list) : t =
  let parts =
    [ version; "seed"; entry;
      Digest.to_hex (Digest.string source) ]
    @ List.map lut_part luts
  in
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let chain (prev : t) ~(pass : string) ~(options_fp : string) : t =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ prev; pass; options_fp ]))

let to_hex (t : t) : string = t
