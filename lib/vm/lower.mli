(** Lowering the scalar data-path function (Figure 3c / 4c) onto the
    SUIFvm-like IR. The dp functions produced by scalar replacement are
    loop-free (straight-line code plus if/else), so lowering builds a
    DAG-shaped CFG with one dedicated register per variable (SSA conversion
    renames afterwards). *)

val lower_kernel :
  ?luts:(string * Roccc_cfront.Semant.lut_signature) list ->
  Roccc_hir.Kernel.t ->
  Proc.t
(** Lower a kernel's data-path function: window scalars and live-in scalars
    become input ports, pointer parameters become output ports, feedback
    variables become LPR/SNX-threaded signals (with a leading LPR binding
    the previous value at entry). *)
