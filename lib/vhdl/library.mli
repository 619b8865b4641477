(** The pre-existing parameterized VHDL component library (paper §4.1: the
    controllers "are all implemented as pre-existing parameterized FSMs in a
    VHDL library") and the Figure 2 system assembly for 1-D single-window
    kernels. *)

val address_generator_vhdl : string
(** Sequential-scan input address generator (generic-parameterized). *)

val smart_buffer_vhdl : window:int -> element_bits:int -> string
(** 1-D sliding-window shift-register buffer with parallel window taps. *)

val controller_vhdl : string
(** The filling/steady/draining/done FSM. *)

val line_buffer_vhdl :
  win_rows:int -> win_cols:int -> row_length:int -> element_bits:int -> string
(** 2-D smart buffer: (win_rows - 1) line FIFOs plus the window column,
    with parallel taps [win_<r>_<c>]. *)

val fifo_vhdl : string
(** Synchronous circular-buffer FIFO channel with full/empty flags
    (process networks: producer stalls on full, consumer on empty). *)

val library_entities : string list

(** One stage of a network top level, as seen by the wiring generator. *)
type net_stage = {
  ns_entity : string;                  (** data-path entity name *)
  ns_element_bits : int;               (** stream element width *)
  ns_out_ports : (string * int) list;  (** output ports (name, bits) *)
}

val network_wrapper_vhdl :
  name:string -> stages:net_stage list -> fifo_depths:int list -> string
(** Render the network top level: each stage's Figure 2 system entity
    chained to the next through a [roccc_fifo] instance of the statically
    sized depth. One depth per adjacent stage pair. *)

val system_wrapper_vhdl :
  dp_entity:string ->
  element_bits:int ->
  win_ports:string list ->
  out_ports:(string * int) list ->
  total_words:int ->
  iterations:int ->
  latency:int ->
  string
(** Render the Figure 2 system: address generator -> BRAM port -> smart
    buffer -> data path, sequenced by the controller. *)
