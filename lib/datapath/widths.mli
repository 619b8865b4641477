(** Bit-width inference (paper §4.2.4): a forward interval analysis deriving
    every signal's physical width from the port kinds and opcodes, capped at
    the declared C kind. Soundness invariant (property-tested): evaluating
    the data path with each intermediate truncated to its inferred width
    equals full-width evaluation. *)

type t
(** Inferred width per virtual register. *)

val width : t -> Roccc_vm.Instr.vreg -> int
(** Raises {!Roccc_util.Diag.Error} for registers outside the analyzed data
    path. *)

val width_opt : t -> Roccc_vm.Instr.vreg -> int option
(** [None] for registers outside the analyzed data path — the non-raising
    query the timing / area / VHDL layers use with their own fallback. *)

val infer : Graph.t -> t
(** Infer widths for a built data path. *)

val declared : Graph.t -> t
(** Widths with inference disabled — every signal at its declared C kind
    (the baseline for the bit-narrowing ablation). *)

val total_bits : t -> int
(** Sum of all inferred signal widths. *)
