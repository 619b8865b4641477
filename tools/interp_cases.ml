(* Reference-interpreter cases pinned by test/golden/interp.txt: one MD5
   line per outcome (every gallery kernel at its benchmark inputs, the five
   cosim-stream inputs, a program covering calls, globals, 2-D arrays,
   casts and short-circuit operators), then the exact step budget two runs
   need: [max_steps] = n succeeds and n - 1 fails. tools/gen_golden.exe
   writes the file and test/test_cfront.ml checks it. *)

module Kernels = Roccc_core.Kernels
module Interp = Roccc_cfront.Interp
module Lut_conv = Roccc_hir.Lut_conv

let render (o : Interp.outcome) =
  let values a = String.concat "," (List.map Int64.to_string a) in
  String.concat "\n"
    (((match o.Interp.return_value with
       | None -> "return"
       | Some v -> Printf.sprintf "return %Ld" v)
     :: List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v)
          o.Interp.pointer_outputs)
    @ List.map
        (fun (n, a) -> Printf.sprintf "%s=%s" n (values (Array.to_list a)))
        o.Interp.arrays)

(* The input streams of perfbench's cosim-stream workload. *)
let stream salt n =
  let st = Random.State.make [| 0; 7; salt |] in
  Array.init n (fun _ -> Int64.of_int (-128 + Random.State.int st 256))

let fir_source n =
  Printf.sprintf
    "void fir(int8 A[%d], int16 C[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
    (n + 4) n n

let smooth_source n =
  Printf.sprintf
    "void smooth(int D[%d], int E[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    E[i] = (D[i] + 2*D[i+1] + D[i+2]) >> 2;\n\
    \  }\n\
     }\n"
    n (n - 2) (n - 2)

let feature_source =
  "int16 G = -7;\n\
   uint8 H;\n\
   int W[2][4];\n\
   int clamp(int x, int lo, int hi) {\n\
  \  int r;\n\
  \  r = x;\n\
  \  if (r < lo) { r = lo; }\n\
  \  if (r > hi) { r = hi; }\n\
  \  return r;\n\
   }\n\
   uint4 nib(int x, int* spare) {\n\
  \  *spare = x;\n\
  \  return x + *spare;\n\
   }\n\
   void feat(int8 A[16], uint16 B[16], int M[2][8], int s, int* o,\n\
  \          uint8* p) {\n\
  \  int i;\n\
  \  int j;\n\
  \  int acc;\n\
  \  uint32 u;\n\
  \  acc = G;\n\
  \  for (i = 0; i < 16; i = i + 1) {\n\
  \    int8 t;\n\
  \    t = A[i] * 3;\n\
  \    u = (uint32)A[i] << 3;\n\
  \    B[i] = u + t + nib(i);\n\
  \    if (A[i] > 0 && A[i] % 2 == 0 || !(A[i] != -5)) {\n\
  \      acc = acc + A[i] / 2;\n\
  \    } else {\n\
  \      acc = acc - (A[i] >> 1);\n\
  \    }\n\
  \  }\n\
  \  for (i = 0; i < 2; i = i + 1) {\n\
  \    for (j = 7; j >= 0; j = j - 1) {\n\
  \      M[i][j] = clamp(M[i][j] * s - j, -100, 100) ^ ~i;\n\
  \      W[i][j % 4] = M[i][j];\n\
  \    }\n\
  \  }\n\
  \  H = acc;\n\
  \  *o = acc + W[1][3] + H;\n\
  \  *p = -acc;\n\
   }\n"

let feature_run ?max_steps () =
  let rt =
    Interp.create ?max_steps (Roccc_cfront.Parser.parse_program feature_source)
  in
  Interp.run rt "feat" ~scalars:[ "s", 13L ]
    ~arrays:
      [ "A", Array.map Int64.of_int
               [| 1; -5; 3; 4; -8; 6; 7; -1; 9; 10; -11; 12; 13; 14; -15;
                  16 |];
        "M", Array.init 16 (fun i -> Int64.of_int (i * 3 - 20)) ]

let fir16_run ?max_steps () =
  let rt =
    Interp.create ?max_steps (Roccc_cfront.Parser.parse_program (fir_source 16))
  in
  Interp.run rt "fir" ~arrays:[ "A", stream 6 20 ]

let outcomes () =
  let kernel (b : Kernels.benchmark) =
    ( b.Kernels.bench_name,
      Interp.run_source
        ~luts:(List.map Lut_conv.signature b.Kernels.luts)
        ~lut_funcs:(List.map Lut_conv.interp_binding b.Kernels.luts)
        ~scalars:b.Kernels.scalars ~arrays:(b.Kernels.arrays ())
        b.Kernels.source b.Kernels.entry )
  in
  let fir n salt =
    Interp.run_source (fir_source n) "fir" ~arrays:[ "A", stream salt (n + 4) ]
  in
  let firsmooth n salt =
    let c = List.assoc "C" (fir n salt).Interp.arrays in
    Interp.run_source (smooth_source n) "smooth" ~arrays:[ "D", c ]
  in
  List.map kernel (Kernels.gallery @ [ Kernels.wavelet_cols ])
  @ [ "cosim-fir1024", fir 1024 1;
      "cosim-fir4096", fir 4096 2;
      (let w = Kernels.wavelet in
       ( "cosim-wavelet",
         Interp.run_source ~scalars:w.Kernels.scalars
           ~arrays:
             [ "X", Array.map (fun v -> Int64.mul v 2L) (stream 3 (16 * 34)) ]
           w.Kernels.source w.Kernels.entry ));
      "cosim-firsmooth1024", firsmooth 1024 4;
      "cosim-firsmooth4096", firsmooth 4096 5;
      "feat", feature_run () ]

(* the least budget a run completes within *)
let budget (run : ?max_steps:int -> unit -> Interp.outcome) =
  let ok n =
    match run ~max_steps:n () with
    | _ -> true
    | exception Interp.Error _ -> false
  in
  let rec grow hi = if ok hi then hi else grow (2 * hi) in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let m = (lo + hi) / 2 in
      if ok m then bisect lo m else bisect m hi
  in
  bisect 0 (grow 1)

let outcome_lines () =
  String.concat ""
    (List.map
       (fun (name, o) ->
         Printf.sprintf "%s outcome=%s\n" name
           (Digest.to_hex (Digest.string (render o))))
       (outcomes ()))

(* the runs whose budgets are pinned, by golden-file name *)
let budgeted = [ "fir16", fir16_run; "feat", feature_run ]

let golden () =
  outcome_lines ()
  ^ String.concat ""
      (List.map
         (fun (name, run) -> Printf.sprintf "%s max_steps=%d\n" name (budget run))
         budgeted)
