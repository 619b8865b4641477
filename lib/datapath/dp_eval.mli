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
(** A data path compiled for repeated evaluation: one closure per
    instruction over an unboxed register file, with operand registers,
    truncation widths, ports, feedback slots and lookup tables resolved.
    The register file and the feedback slots belong to the value, so a
    [prepared] value serves one evaluation at a time. *)

val prepare :
  ?luts:(string * (int64 -> int64)) list ->
  ?widths:Widths.t ->
  ?columns:string array ->
  Graph.t ->
  prepared
(** Compile a data path. [luts] binds the lookup tables. With [widths],
    every intermediate is truncated to its inferred physical width — the
    soundness check for bit-width inference. [columns] names the words of
    the input rows {!launch} reads (default: the input ports, in order).
    Faults that do not depend on a value — a register read before its
    definition, an LPR of an undeclared signal, a table missing from
    [luts], a malformed instruction — are found here and raised when a
    launch reaches them, with the messages a step-by-step evaluation
    gives. *)

val outputs : prepared -> string array
(** The output ports: the words of the output rows {!launch} writes. *)

val launch :
  prepared -> Roccc_util.Words.t -> int -> Roccc_util.Words.t -> int -> unit
(** [launch p src at dst dst_at] evaluates one iteration, allocating
    nothing: the inputs are the row of [src] at word [at] (laid out as
    [columns]), the outputs go to the row of [dst] at word [dst_at], and
    this iteration's SNX stores become what the next launch's LPRs read
    (the threading of {!thread_feedback}). Division by zero on a not-taken
    lane yields a harmless placeholder, as in hardware where the mux
    discards the lane. Raises {!Error} for an input port with no column,
    and for a register read before this launch defines it. *)

val run_prepared :
  ?feedback_prev:(string * int64) list ->
  prepared ->
  inputs:(string * int64) list ->
  result
(** Evaluate one iteration from and to lists. [feedback_prev] gives each
    declared feedback signal's previous value (default: its initial
    value). *)

val run :
  ?luts:(string * (int64 -> int64)) list ->
  ?feedback_prev:(string * int64) list ->
  ?widths:Widths.t ->
  Graph.t ->
  inputs:(string * int64) list ->
  result
(** [run ?luts ?widths dp] is [run_prepared (prepare ?luts ?widths dp)]:
    one iteration on a fresh evaluator. *)

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
