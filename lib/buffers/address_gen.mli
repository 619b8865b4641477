(** Address generators (paper §4.1): parameterized FSMs exporting memory
    addresses according to the access pattern. The input side streams every
    array element once, row-major, in bursts; the output side produces one
    store address per exported window. *)

type input_gen

val create_input : array_dims:int list -> bus_elements:int -> input_gen

val next_read : input_gen -> int
(** Claim the next burst of consecutive addresses: returns its length, 0
    once the array is exhausted. The burst starts at {!issued} as it was
    before the call. *)

val issued : input_gen -> int

type output_gen

val create_output :
  out_dims:int list ->
  iterations:int list ->
  stride:int list ->
  lower:int list ->
  offset:int list ->
  output_gen

val next_write : output_gen -> int
(** Flat store address for the next window; -1 when complete. Raises
    {!Roccc_util.Diag.Error} when the pattern escapes the output array. *)
