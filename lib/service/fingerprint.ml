(* Content-addressed cache keys: a stage output is identified by a digest
   of everything that determines it — the C source, the entry function,
   the registered lookup tables and the passes that produced it, each
   with the option fields it reads. Two jobs with equal fingerprints may
   share one cached result; any changed input changes the digest. *)

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
let version = "roccc-cache-v6"

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let inputs ~(tag : string) ~(source : string) ~(entry : string)
    ~(luts : Lut_conv.table list) : string list =
  [ version; tag; entry; Digest.to_hex (Digest.string source) ]
  @ List.map lut_part luts

(* A finished artifact is determined by its inputs and, in order, the
   name and option fingerprint of every pass that runs — equal lists mean
   equal artifacts whatever option record or pass selection produced
   them. *)
let make ~(source : string) ~(entry : string) ~(luts : Lut_conv.table list)
    ~(passes : (string * string) list) : t =
  digest
    (inputs ~tag:"full" ~source ~entry ~luts
    @ List.concat_map (fun (name, fp) -> [ name; fp ]) passes)

(* Per-pass chained keys: the key of the state a pass produces is a
   digest of the key of the state it read, the pass name and that pass's
   own option fingerprint. Equal chains mean "same pipeline state", from
   parse to area-estimation: two option records share every state up to
   the first pass that reads a field where they differ — a bus-width
   sweep shares all but area-estimation, a clock-target sweep everything
   before pipelining. A pass that is skipped at run time (its
   [applicable] gate is false) returns its input, so the service chains
   no link for it and the next pass chains from the same key. *)

let seed ~(source : string) ~(entry : string)
    ~(luts : Lut_conv.table list) : t =
  digest (inputs ~tag:"seed" ~source ~entry ~luts)

let chain (prev : t) ~(pass : string) ~(options_fp : string) : t =
  digest [ prev; pass; options_fp ]

let to_hex (t : t) : string = t
