(* Seeded input generators. The same seed always yields the same sources,
   options and input arrays; the program under test only ever sees the
   generated inputs.

   Generated kernels are stratified: a kernel's shape, size and compile
   options follow from its index alone, and the seed draws only the
   constants (coefficients, thresholds, shift amounts), the sample inputs
   and the visiting order. Two seeds therefore give different programs
   with the same mix of compile work, which keeps run-to-run spread low
   without fixing the inputs. *)

module Driver = Roccc_core.Driver

type kernel = {
  k_shape : string;
  k_entry : string;
  k_source : string;
  k_options : Driver.options;
  k_arrays : (string * int64 array) list;  (** one sample input set *)
}

let shapes = [| "fir"; "select"; "accumulate"; "stencil"; "mulshift" |]
let n_shapes = Array.length shapes

let rng seed salts = Random.State.make (Array.of_list (seed :: salts))

(* The seed of what must not move with --seed: the design sets the
   circuit metrics of zoo-cold and serve-mixed are computed over, and the
   stream values of cosim-stream. *)
let fixed_seed = 0

let between st lo hi = lo + Random.State.int st (hi - lo + 1)
(* Constant multipliers are drawn from 3, 5, 7 and 9 with a random sign:
   each is one shift-and-add, so the draw changes the values a kernel
   computes but not how much hardware, and compile work, it takes. *)
let coefficient st =
  let c = [| 3; 5; 7; 9 |].(Random.State.int st 4) in
  if Random.State.bool st then c else -c

let shuffle st (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let samples st n lo hi = Array.init n (fun _ -> Int64.of_int (between st lo hi))

let samples32 st n =
  Array.init n (fun _ ->
      Int64.of_int ((Random.State.bits st lsl 2) lor (Random.State.bits st land 3)))

(* "c0*t0 + c1*t1 - ..." with the leading coefficient made positive *)
let weighted_sum (terms : (int * string) list) : string =
  String.concat ""
    (List.mapi
       (fun i (c, t) ->
         let c = if i = 0 then abs c else c in
         if i = 0 then Printf.sprintf "%d*%s" c t
         else if c < 0 then Printf.sprintf " - %d*%s" (-c) t
         else Printf.sprintf " + %d*%s" c t)
       terms)

let n = 32

(* The option strata: variant [v] fixes bus width, partial-unroll factor
   and clock target, cycling through all 18 combinations. The compiler
   partially unrolls only 1-D streaming loops, so 2-D kernels keep
   factor 1. *)
let options_of_variant ~(two_d : bool) (v : int) : Driver.options =
  { Driver.default_options with
    Driver.bus_elements = [| 1; 2; 4 |].(v mod 3);
    unroll_outer_factor = (if two_d then 1 else [| 1; 2 |].(v / 3 mod 2));
    target_ns = [| 3.0; 5.0; 8.0 |].(v / 6 mod 3) }

(* One kernel of [shape] and variant [v], named [entry], constants drawn
   from [st]. *)
let make_kernel st ~shape ~v ~entry : kernel =
  let source, arrays =
    match shape with
    | "fir" ->
      let taps = 3 + (v mod 14) in
      let terms =
        List.init taps (fun j -> coefficient st, Printf.sprintf "A[i+%d]" j)
      in
      ( Printf.sprintf
          "void %s(int8 A[%d], int32 C[%d]) {\n\
          \  int i;\n\
          \  for (i = 0; i < %d; i++) {\n\
          \    C[i] = %s;\n\
          \  }\n\
           }\n"
          entry (n + taps - 1) n n (weighted_sum terms),
        [ "A", samples st (n + taps - 1) (-128) 127 ] )
    | "select" ->
      let k0 = between st (-20) 20 and k1 = abs (coefficient st)
      and k2 = between st 0 99 and k3 = abs (coefficient st) in
      ( Printf.sprintf
          "void %s(int16 A[%d], int16 B[%d], int32 C[%d]) {\n\
          \  int i;\n\
          \  for (i = 0; i < %d; i++) {\n\
          \    int x;\n\
          \    if (A[i] > B[i] + %d) { x = A[i] * %d + %d; } else { x = B[i] - A[i] * %d; }\n\
          \    C[i] = x;\n\
          \  }\n\
           }\n"
          entry n n n n k0 k1 k2 k3,
        [ "A", samples st n (-1000) 1000; "B", samples st n (-1000) 1000 ] )
    | "accumulate" ->
      let init = between st (-50) 50 and k = abs (coefficient st) in
      ( Printf.sprintf
          "int acc = %d;\n\
           void %s(int16 A[%d], int* out) {\n\
          \  int i;\n\
          \  for (i = 0; i < %d; i++) {\n\
          \    acc = acc + A[i] * %d;\n\
          \  }\n\
          \  *out = acc;\n\
           }\n"
          init entry n n k,
        [ "A", samples st n (-1000) 1000 ] )
    | "stencil" ->
      let terms =
        List.init 9 (fun j ->
            coefficient st, Printf.sprintf "P[r+%d][c+%d]" (j / 3) (j mod 3))
      in
      ( Printf.sprintf
          "void %s(int8 P[10][10], int32 Q[8][8]) {\n\
          \  int r, c;\n\
          \  for (r = 0; r < 8; r++) {\n\
          \    for (c = 0; c < 8; c++) {\n\
          \      Q[r][c] = %s;\n\
          \    }\n\
          \  }\n\
           }\n"
          entry (weighted_sum terms),
        [ "P", samples st 100 (-128) 127 ] )
    | "mulshift" ->
      let s = between st 16 40 in
      ( Printf.sprintf
          "void %s(uint32 A[%d], uint32 B[%d], uint32 C[%d]) {\n\
          \  int i;\n\
          \  for (i = 0; i < %d; i++) {\n\
          \    uint64 x, y, p;\n\
          \    x = A[i] & 2147483647;\n\
          \    y = B[i];\n\
          \    p = x * y;\n\
          \    C[i] = p >> %d;\n\
          \  }\n\
           }\n"
          entry n n n n s,
        [ "A", samples32 st n; "B", samples32 st n ] )
    | other -> invalid_arg ("Gen.make_kernel: unknown shape " ^ other)
  in
  { k_shape = shape; k_entry = entry; k_source = source;
    k_options = options_of_variant ~two_d:(shape = "stencil") v; k_arrays = arrays }

(* ------------------------------------------------------------------ *)
(* zoo-cold                                                            *)
(* ------------------------------------------------------------------ *)

(* 5 shapes x 49 variants. The pool size is odd so that the traced runs,
   which trace every other op, trace every kernel on some pass. *)
let zoo_variants = 49

let zoo_pool ~(seed : int) : kernel array =
  let kernels =
    Array.init (n_shapes * zoo_variants) (fun i ->
        let shape = shapes.(i mod n_shapes) and v = i / n_shapes in
        make_kernel (rng seed [ 1; i ]) ~shape ~v
          ~entry:(Printf.sprintf "%s_%d" shape v))
  in
  shuffle (rng seed [ 2 ]) kernels

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

type request = Hot of int | Fresh of int | Health

let hot_keys = 64

(* Each block of 100 requests holds exactly 79 hot repeats, 20 fresh
   kernels and 1 health probe, in a seeded order. *)
let block = 100
let block_hot = 79
let block_fresh = 20

let request ~(seed : int) (i : int) : request =
  let b = i / block in
  let slot = (shuffle (rng seed [ 3; b ]) (Array.init block Fun.id)).(i mod block) in
  if slot < block_hot then Hot (Random.State.int (rng seed [ 4; i ]) hot_keys)
  else if slot < block_hot + block_fresh then Fresh ((b * block_fresh) + slot - block_hot)
  else Health

(* The hot keys are a fixed catalogue, the same on every seed, so the
   circuit metrics serve-mixed computes over them do not move with the
   seed; the seed draws the request order and the fresh kernels. *)
let hot_kernel (j : int) : kernel =
  make_kernel (rng fixed_seed [ 5; j ]) ~shape:shapes.(j mod n_shapes) ~v:(j / n_shapes)
    ~entry:(Printf.sprintf "%s_h%d" shapes.(j mod n_shapes) j)

(* Fresh kernel [f] is never requested twice: its entry name is unique. *)
let fresh_kernel ~(seed : int) (f : int) : kernel =
  make_kernel (rng seed [ 6; f ]) ~shape:shapes.(f mod n_shapes)
    ~v:(f / n_shapes mod 18)
    ~entry:(Printf.sprintf "%s_f%d" shapes.(f mod n_shapes) f)

(* ------------------------------------------------------------------ *)
(* cosim-stream                                                        *)
(* ------------------------------------------------------------------ *)

(* The same on every seed: see [Workloads.cosim_stream]. *)
let stream ~(salt : int) (len : int) : int64 array =
  samples (rng fixed_seed [ 7; salt ]) len (-128) 127
