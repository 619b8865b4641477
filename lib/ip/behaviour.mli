(** Golden behavioural models for the nine Table 1 kernels; both the IP
    baselines and the compiled ROCCC circuits are checked against these. *)

val bit_correlator : mask:int64 -> int64 -> int64
(** Number of bits of the 8-bit input equal to the constant mask. *)

val udiv : int64 -> int64 -> int64 * int64
(** 8-bit unsigned division: (quotient, remainder); divide-by-zero yields
    the all-ones quotient like a restoring divider. *)

val isqrt : int64 -> int64
(** Floor integer square root. *)

val fir : int64 array -> int64 array
(** 5-tap FIR over a padded input (output length = input - 4). *)

val dct8_coeff : int array array
(** round(64 * c(k)/2 * cos((2n+1) k pi / 16)); c(0) = 1/sqrt 2. *)

val dct8 : int64 array -> int64 array
(** Scaled integer 8-point DCT-II. *)

val wavelet53_2d : rows:int -> cols:int -> int64 array -> int64 array
(** Row pass then column pass over a row-major image. *)
