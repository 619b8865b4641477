(** Evaluator for built data paths: executes every node (no control flow
    remains — both branch sides compute and muxes select), threading LPR/SNX
    feedback between iterations. Used to verify construction against the VM
    and C semantics, and as the functional core of the hardware simulator. *)

exception Error of string

type result = {
  outputs : (string * int64) list;
  feedback_next : (string * int64) list;
      (** values stored by SNX this iteration *)
}

type prepared
(** A data path ready for repeated evaluation: instruction operands and
    actions resolved once, plus a register file sized by the largest
    register. The register file is scratch shared by every launch, so a
    [prepared] value belongs to one evaluation at a time. *)

val prepare : Graph.t -> prepared

val run_prepared :
  ?luts:(string * (int64 -> int64)) list ->
  ?feedback_prev:(string * int64) list ->
  ?widths:Widths.t ->
  prepared ->
  inputs:(string * int64) list ->
  result
(** Evaluate one iteration. With [widths], every intermediate is truncated
    to its inferred physical width — the soundness check for bit-width
    inference. Division by zero on a not-taken lane yields a harmless
    placeholder, as in hardware where the mux discards the lane. A register
    read before this launch defines it raises {!Error}, whatever earlier
    launches wrote. *)

val run :
  ?luts:(string * (int64 -> int64)) list ->
  ?feedback_prev:(string * int64) list ->
  ?widths:Widths.t ->
  Graph.t ->
  inputs:(string * int64) list ->
  result
(** [run dp] is [run_prepared (prepare dp)]: one iteration on a fresh
    evaluator. *)

val thread_feedback :
  (string * int64) list -> result -> (string * int64) list
(** [thread_feedback prev r]: the feedback values the iteration after [r]
    reads — [r]'s SNX stores, then the [prev] values of signals [r] did
    not store. *)

val run_stream :
  ?luts:(string * (int64 -> int64)) list ->
  Graph.t ->
  (string * int64) list list ->
  result list
(** Iterate over a stream of per-iteration inputs, threading feedback, on
    one evaluator prepared for the whole stream. *)
