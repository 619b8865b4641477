(** The Table 1 comparators: the paper's published numbers (Xilinx ISE /
    IP 5.1i on xc2v2000-5) as the reference series, plus our structural
    models of the same hand-optimized designs costed with the repository's
    slice-packing rules, so the fully-synthetic comparison uses one cost
    model on both sides. *)

type perf = { slices : int; clock_mhz : float }

type row = {
  name : string;
  paper_ip : perf;
  paper_roccc : perf;
  description : string;
}

val paper_table1 : row list
(** The nine published rows, in Table 1 order. *)

val model : string -> perf option
(** Our structural estimate of the hand design for a Table 1 row name:
    distributed-arithmetic FIR/DCT, MULT18X18-based mul_acc, restoring
    array divider, non-restoring square root, half-wave cos ROM, full
    arbitrary ROM, lifting wavelet engine. *)
