(** Reference evaluator for VM procedures: executes one invocation (= one
    loop iteration of the original kernel). Used to check that lowering,
    SSA conversion and data-path construction preserve the software
    semantics. *)

type result = {
  outputs : (string * int64) list;
  feedback_next : (string * int64) list;
      (** values stored by SNX this iteration *)
}

val run :
  ?luts:(string * (int64 -> int64)) list ->
  ?feedback_prev:(string * int64) list ->
  Proc.t ->
  inputs:(string * int64) list ->
  result
(** Execute the CFG from entry to [Ret]. [feedback_prev] supplies each
    feedback signal's previous-iteration value (defaulting to its declared
    initial value). *)

val run_stream :
  ?luts:(string * (int64 -> int64)) list ->
  Proc.t ->
  (string * int64) list list ->
  result list
(** Iterate over per-iteration inputs, threading feedback values — the
    software model of the pipelined data path. *)
