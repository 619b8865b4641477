(* A C corpus that reaches the VHDL generator's operator arms the gallery
   never emits: rem, neg, the <, <=, = and /= comparisons, logical and/or/not,
   and literals wider than 32 bits (bit-string form): a signed constant and
   the unsigned reset value of a feedback register.
   test/golden/ops.vhdl.txt pins one MD5 line per entry over its VHDL text;
   tools/gen_golden.exe writes it and test/test_vhdl.ml checks it, and that
   each entry's hardware equals the C interpreter on [arrays]. *)

module Driver = Roccc_core.Driver

let source =
  "uint64 s = 7000000000;\n\
   void arith(int16 A[12], int16 B[10]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    B[i] = (A[i] % 7) + (-A[i+1]) + (A[i+2] / 3);\n\
  \  }\n\
   }\n\
   void compare(int16 A[12], int8 B[10]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    B[i] = (A[i] < A[i+1]) + 2 * (A[i] <= A[i+2]) + 4 * (A[i+1] == A[i+2])\n\
  \      + 8 * (A[i] != 5);\n\
  \  }\n\
   }\n\
   void logic(int16 A[12], int8 B[10]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    B[i] = ((A[i] > 0) && (A[i+1] > 0)) + 2 * ((A[i] > 3) || (A[i+2] < -3))\n\
  \      + 4 * (!A[i+1]);\n\
  \  }\n\
   }\n\
   void wide(int32 A[12], int64 B[10]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    B[i] = A[i] + 5000000000;\n\
  \  }\n\
   }\n\
   void accu(uint8 A[12], uint64* out) {\n\
  \  int i;\n\
  \  for (i = 0; i < 12; i++) {\n\
  \    s = s ^ A[i];\n\
  \  }\n\
  \  *out = s;\n\
   }\n"

let entries = [ "arith"; "compare"; "logic"; "wide"; "accu" ]

(* Inputs with negatives, zeros, repeats and a 5, so every comparison and
   both signs of % and / are taken. *)
let arrays =
  [ "A", Array.map Int64.of_int [| -9; 5; 0; 5; 12; -4; 0; 7; -7; 3; 5; -1 |] ]

let compile entry = Driver.compile ~entry source

let golden () =
  String.concat ""
    (List.map
       (fun entry ->
         let text = Roccc_vhdl.Ast.to_string (compile entry).Driver.design in
         Printf.sprintf "%s vhdl=%s\n" entry (Digest.to_hex (Digest.string text)))
       entries)
