(** Golden behavioural models for the nine Table 1 kernels. Both the IP
    baselines and the ROCCC-compiled circuits are checked against these. *)

let popcount8 (v : int64) : int64 =
  let rec loop v acc =
    if Int64.equal v 0L then acc
    else
      loop (Int64.shift_right_logical v 1)
        (Int64.add acc (Int64.logand v 1L))
  in
  loop (Int64.logand v 0xffL) 0L

(** Number of bits of the 8-bit input equal to the constant mask. *)
let bit_correlator ~(mask : int64) (x : int64) : int64 =
  (* bits equal <=> xnor; count ones of ~(x ^ mask) over 8 bits *)
  popcount8 (Int64.lognot (Int64.logxor x mask))

(** 8-bit unsigned division: (quotient, remainder). *)
let udiv (n : int64) (d : int64) : int64 * int64 =
  if Int64.equal d 0L then 0xffL, Int64.logand n 0xffL
  else Int64.div n d, Int64.rem n d

(** Integer square root of a 24-bit value (floor). *)
let isqrt (x : int64) : int64 =
  if Int64.compare x 0L <= 0 then 0L
  else begin
    let x = Int64.to_int x in
    let r = int_of_float (Float.sqrt (float_of_int x)) in
    (* fix float rounding at the boundary *)
    let r = if (r + 1) * (r + 1) <= x then r + 1 else r in
    let r = if r * r > x then r - 1 else r in
    Int64.of_int r
  end

(** 5-tap constant-coefficient FIR (the paper's Figure 3 coefficients). *)
let fir_taps = [ 3; 5; 7; 9; -1 ]

let fir (input : int64 array) : int64 array =
  let n = Array.length input - 4 in
  Array.init n (fun i ->
      List.fold_left
        (fun acc (j, c) ->
          Int64.add acc (Int64.mul (Int64.of_int c) input.(i + j)))
        0L
        (List.mapi (fun j c -> j, c) fir_taps))

(** 1-D 8-point DCT-II with integer (scaled) coefficients, matching a
    distributed-arithmetic fixed-point implementation: 8-bit input,
    wider output. Coefficients scaled by 2^6 and the products truncated. *)
let dct8_coeff : int array array =
  (* round(64 * c(k) * cos((2n+1) k pi / 16)), c(0)=1/sqrt2 *)
  Array.init 8 (fun k ->
      Array.init 8 (fun n ->
          let ck = if k = 0 then 1.0 /. Float.sqrt 2.0 else 1.0 in
          let v =
            64.0 *. ck /. 2.0
            *. Float.cos
                 (Float.pi *. float_of_int ((2 * n) + 1) *. float_of_int k
                 /. 16.0)
          in
          int_of_float (Float.round v)))

let dct8 (x : int64 array) : int64 array =
  Array.init 8 (fun k ->
      let acc = ref 0L in
      for n = 0 to 7 do
        acc :=
          Int64.add !acc
            (Int64.mul (Int64.of_int dct8_coeff.(k).(n)) x.(n))
      done;
      !acc)

(** One level of the 2-D (5,3) lifting wavelet used by lossless JPEG2000:
    returns (LL-ish approximation, detail planes flattened) — we model the
    row transform followed by the column transform on an even-sized image.
    Input row-major [rows][cols]. *)
let wavelet53_1d (line : int64 array) : int64 array =
  let n = Array.length line in
  let half = n / 2 in
  let out = Array.make n 0L in
  let get i = line.(max 0 (min (n - 1) i)) in
  (* lifting: d[j] = x[2j+1] - floor((x[2j] + x[2j+2]) / 2) *)
  for j = 0 to half - 1 do
    let d =
      Int64.sub (get ((2 * j) + 1))
        (Int64.div (Int64.add (get (2 * j)) (get ((2 * j) + 2))) 2L)
    in
    out.(half + j) <- d
  done;
  (* s[j] = x[2j] + floor((d[j-1] + d[j] + 2) / 4) *)
  for j = 0 to half - 1 do
    let dj = out.(half + j) in
    let djm1 = if j = 0 then dj else out.(half + j - 1) in
    let s =
      Int64.add (get (2 * j))
        (Int64.div (Int64.add (Int64.add djm1 dj) 2L) 4L)
    in
    out.(j) <- s
  done;
  out

let wavelet53_2d ~(rows : int) ~(cols : int) (img : int64 array) : int64 array
    =
  assert (Array.length img = rows * cols);
  let tmp = Array.make (rows * cols) 0L in
  (* rows *)
  for r = 0 to rows - 1 do
    let line = Array.sub img (r * cols) cols in
    let t = wavelet53_1d line in
    Array.blit t 0 tmp (r * cols) cols
  done;
  (* columns *)
  let out = Array.make (rows * cols) 0L in
  for c = 0 to cols - 1 do
    let line = Array.init rows (fun r -> tmp.((r * cols) + c)) in
    let t = wavelet53_1d line in
    for r = 0 to rows - 1 do
      out.((r * cols) + c) <- t.(r)
    done
  done;
  out
