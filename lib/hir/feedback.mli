(** Feedback annotation (paper §4.2.1, Figure 4): loop-carried scalars are
    rewritten so reads of the previous iteration's value go through
    [ROCCC_load_prev] and one unconditional [ROCCC_store2next] at the end of
    the body stores the (possibly phi-merged) new value. The store must be
    unconditional: the hardware feedback latch loads every cycle. *)

val annotate : Kernel.t -> Kernel.t
(** Rewrite the kernel's data-path function for every detected feedback
    variable (no-op without feedback). *)

val validate : Kernel.t -> unit
(** Check that each feedback variable has exactly one unconditional store2next
    at the top level of the dp body. Raises {!Roccc_util.Diag.Error}. *)
