(** The nine Table 1 benchmark kernels as C sources, with deterministic
    input generators and per-kernel compile options: bit_correlator,
    mul_acc, udiv, square_root, cos, arbitrary LUT, FIR, DCT and the (5,3)
    wavelet engine (paper §5). *)

type benchmark = {
  bench_name : string;
  source : string;
  entry : string;
  luts : Roccc_hir.Lut_conv.table list;
  tune : Driver.options -> Driver.options;
  arrays : unit -> (string * int64 array) list;
  scalars : (string * int64) list;
}

val paper_fir_source : string
(** The running FIR example from the paper's Figure 2. *)

val paper_acc_source : string
(** The global-accumulator (scalar feedback) example. *)

val paper_if_else_source : string
(** The if-conversion (predicated mux) example. *)

val bit_correlator : benchmark
val bit_correlator_mask : int
val mul_acc : benchmark
val udiv : benchmark
val square_root : benchmark
val cos_kernel : benchmark
val cos_table : Roccc_hir.Lut_conv.table
val arbitrary_lut : benchmark
val fir : benchmark
val dct : benchmark
val dct_source : string
val dct8_coeff : int array array
(** round(64 * c(k)/2 * cos((2n+1) k pi / 16)) — shared with the golden
    behavioural model. *)

val wavelet : benchmark
(** The (5,3) lifting row pass; the full engine pairs it with
    {!wavelet_cols}. *)

val wavelet_cols : benchmark

val modsq : benchmark
(** Modular squaring over the Mersenne prime 2^31-1 — the wide-arithmetic
    workload: its 62-bit square compiles to a pinned multi-stage operator
    region. Not a Table 1 row; carried in the {!gallery}. *)

val table1 : benchmark list
(** The nine rows in Table 1 order. *)

val gallery : benchmark list
(** Every built-in kernel: {!table1} plus the wide-arithmetic additions. *)

val find : string -> benchmark option
(** Looks a kernel up in the {!gallery}. *)

val compile : benchmark -> Driver.compiled
(** Compile with the benchmark's tuned options and tables. *)

val run : benchmark -> Driver.compiled * Roccc_hw.Engine.result * string list
(** Compile, simulate on the deterministic inputs, and co-verify; the
    third component lists hardware/software mismatches ([] = verified). *)
