(** Self-checking VHDL testbench generation: drives the data-path entity
    with the per-iteration window values the smart buffer would deliver and
    asserts the expected outputs after the pipeline latency. Expected values
    come from the data-path evaluator, which the test suite keeps equal to
    the C interpreter. *)

val iteration_inputs :
  Driver.compiled ->
  arrays:(string * int64 array) list ->
  scalars:(string * int64) list ->
  (string * int64) list list
(** The stimulus schedule: window scalar values per launch, in kernel
    iteration order (the smart buffer's export order). Exposed for tests. *)

val generate :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  Driver.compiled ->
  string
(** Render the testbench VHDL text. Raises {!Roccc_util.Diag.Error} when a
    named input array or scalar is missing. *)
