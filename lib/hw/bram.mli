(** Block-RAM model (paper Figure 2): one read port with single-cycle
    latency, one write port, access counting. The off-chip engine is assumed
    to stage input data before the circuit starts. Contents are unboxed
    words, so a clocked read or a write allocates nothing. *)

type t = {
  name : string;
  data : Roccc_util.Words.t;
  element_bits : int;
  element_signed : bool;
  shift : int;
  mutable reads : int;
  mutable writes : int;
  mutable pending_address : int;
  mutable pending_count : int;  (** 0 = no request this cycle *)
  mutable read_out : Roccc_util.Words.t;
      (** the read port register: words [0, read_count) are valid *)
  mutable read_count : int;
}

val create :
  name:string -> element_bits:int -> ?element_signed:bool -> size:int ->
  unit -> t

val load : t -> int64 array -> unit
(** Stage contents (truncated to the element kind). *)

val contents : t -> int64 array

val request_read : t -> address:int -> count:int -> unit
(** Present a burst read request; data appears after the next {!clock}. *)

val write : t -> address:int -> Roccc_util.Words.t -> int -> unit
(** [write m ~address src i] stores word [i] of [src] (truncated to the
    element kind). *)

val clock : t -> unit
(** Clock edge: capture the pending request into the read port register
    ([read_count] = 0 when there was none). *)
