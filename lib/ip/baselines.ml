(** The Table 1 comparators.

    Two data series per kernel:

    - [paper]: the numbers published in the paper (Xilinx ISE 5.1i, IP core
      5.1i, xc2v2000-5). The IP cores are closed source, so their published
      measurements are carried as the reference series (DESIGN.md §2).
    - [model]: our structural estimate of the same hand-optimized design
      (distributed arithmetic, dedicated MULT18X18 blocks, half-wave ROMs),
      costed with the same slice-packing rules as the compiled circuits, so
      the fully-synthetic comparison uses one cost model on both sides. *)

type perf = { slices : int; clock_mhz : float }

type row = {
  name : string;
  paper_ip : perf;
  paper_roccc : perf;
  description : string;
}

(** Table 1 as published (IP columns and ROCCC columns). *)
let paper_table1 : row list =
  [ { name = "bit_correlator";
      paper_ip = { slices = 9; clock_mhz = 212.0 };
      paper_roccc = { slices = 19; clock_mhz = 144.0 };
      description = "count bits of an 8-bit input equal to a constant mask" };
    { name = "mul_acc";
      paper_ip = { slices = 18; clock_mhz = 238.0 };
      paper_roccc = { slices = 59; clock_mhz = 238.0 };
      description = "12-bit multiplier-accumulator with new-data flag" };
    { name = "udiv";
      paper_ip = { slices = 144; clock_mhz = 216.0 };
      paper_roccc = { slices = 495; clock_mhz = 272.0 };
      description = "8-bit unsigned divider" };
    { name = "square_root";
      paper_ip = { slices = 585; clock_mhz = 167.0 };
      paper_roccc = { slices = 1199; clock_mhz = 220.0 };
      description = "24-bit integer square root" };
    { name = "cos";
      paper_ip = { slices = 150; clock_mhz = 170.0 };
      paper_roccc = { slices = 150; clock_mhz = 170.0 };
      description = "10-bit to 16-bit cosine lookup (half-wave ROM)" };
    { name = "arbitrary_lut";
      paper_ip = { slices = 549; clock_mhz = 170.0 };
      paper_roccc = { slices = 549; clock_mhz = 170.0 };
      description = "10-bit to 16-bit arbitrary ROM lookup" };
    { name = "fir";
      paper_ip = { slices = 270; clock_mhz = 185.0 };
      paper_roccc = { slices = 293; clock_mhz = 194.0 };
      description = "two 5-tap 8-bit constant-coefficient FIR filters" };
    { name = "dct";
      paper_ip = { slices = 412; clock_mhz = 181.0 };
      paper_roccc = { slices = 724; clock_mhz = 133.0 };
      description = "1-D 8-point DCT, 8-bit input, 19-bit output" };
    { name = "wavelet";
      paper_ip = { slices = 1464; clock_mhz = 104.0 };
      paper_roccc = { slices = 2415; clock_mhz = 101.0 };
      description = "2-D (5,3) lossless JPEG2000 wavelet engine (handwritten)" } ]

(* ------------------------------------------------------------------ *)
(* Structural models of the hand designs                               *)
(* ------------------------------------------------------------------ *)

let slices_of = Roccc_fpga.Area.slices_of

let mhz_of_delay = Roccc_datapath.Delay.clock_mhz_of_stage_delay

(** bit_correlator: 8 XNORs fold into the popcount compressors; two 4:3
    compressors + a 3-bit adder, one output register. *)
let model_bit_correlator () : perf =
  let luts = 2 * 4 (* compressors *) + 3 (* adder *) + 2 in
  let ffs = 4 in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 2.0 }

(** mul_acc: the 12x12 multiply maps to a dedicated MULT18X18 block (zero
    slices); slices cover the 26-bit accumulator and the nd gating. *)
let model_mul_acc () : perf =
  let luts = 26 + 2 in
  let ffs = 26 in
  { slices = slices_of ~luts ~flip_flops:ffs + 2;
    clock_mhz = mhz_of_delay 2.3 (* MULT18X18 + accumulate *) }

(** udiv: fully pipelined 8-stage restoring array divider, 9-bit conditional
    subtract per stage plus per-stage registers for n/q/d. *)
let model_udiv () : perf =
  let stages = 8 in
  let luts = stages * (9 + 9) in
  let ffs = stages * 26 in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 1.9 }

(** square_root: 12-stage non-restoring root over 24 bits; each stage holds
    a 26-bit add/sub, comparison and remainder/root registers. *)
let model_square_root () : perf =
  let stages = 12 in
  let luts = stages * (26 + 26) in
  let ffs = stages * 64 in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 3.2 }

(** cos: half-wave 512x16 distributed ROM plus mirror/negate logic. *)
let model_cos () : perf =
  let rom_luts = 512 * 16 / 16 in
  let luts = rom_luts / 2 (* quarter-wave folding halves it again *) + 24 in
  { slices = slices_of ~luts ~flip_flops:17;
    clock_mhz = mhz_of_delay 2.9 }

(** arbitrary LUT: full 1024x16 distributed ROM. *)
let model_arbitrary_lut () : perf =
  let rom_luts = 1024 * 16 / 16 in
  { slices = slices_of ~luts:rom_luts ~flip_flops:17;
    clock_mhz = mhz_of_delay 2.9 }

(** FIR: two 5-tap 8-bit constant-coefficient filters with distributed
    arithmetic — per filter: 8 DA stages of a 5-input table + 16-bit
    scaling accumulator. *)
let model_fir () : perf =
  let per_filter_luts = (8 * 16) + 16 in
  let per_filter_ffs = 16 * 6 in
  let luts = 2 * per_filter_luts in
  let ffs = 2 * per_filter_ffs in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 2.5 }

(** DCT: 8-point 1-D DA implementation producing one output per cycle —
    a serialized butterfly + DA tables for the 4 symmetric coefficient
    pairs, 19-bit accumulators. *)
let model_dct () : perf =
  let da_tables = 4 * 19 * 2 in
  let butterflies = 8 * 9 in
  let accumulators = 8 * 19 / 2 in
  let luts = da_tables + butterflies + accumulators in
  let ffs = 8 * 19 + 64 in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 2.6 }

(** Wavelet: handwritten 2-D (5,3) engine — row/column lifting data paths,
    two line buffers of 512x16, plus the address generators. *)
let model_wavelet () : perf =
  let lifting_luts = 2 * (3 * 17) in
  let line_buffer_ffs = 2 * 512 in
  let addr_luts = 64 in
  let luts = lifting_luts + addr_luts + 512 (* buffer steering *) in
  let ffs = line_buffer_ffs + 128 in
  { slices = slices_of ~luts ~flip_flops:ffs;
    clock_mhz = mhz_of_delay 5.2 }

let model name : perf option =
  match name with
  | "bit_correlator" -> Some (model_bit_correlator ())
  | "mul_acc" -> Some (model_mul_acc ())
  | "udiv" -> Some (model_udiv ())
  | "square_root" -> Some (model_square_root ())
  | "cos" -> Some (model_cos ())
  | "arbitrary_lut" -> Some (model_arbitrary_lut ())
  | "fir" -> Some (model_fir ())
  | "dct" -> Some (model_dct ())
  | "wavelet" -> Some (model_wavelet ())
  | _ -> None
