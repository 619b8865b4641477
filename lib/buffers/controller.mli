(** The higher-level controller (paper §4.1): the FSM sequencing the address
    generators, smart buffer and data path. Compile-time scheduling means no
    handshake cycles (§3, vs. SA-C): progress is tracked by launch/retire
    counters. *)

type state = Idle | Filling | Steady | Draining | Done

val state_name : state -> string

type t = {
  mutable state : state;
  mutable cycle : int;
  mutable launched : int;
  mutable retired : int;
  total_iterations : int;
  pipeline_latency : int;
}

val create : total_iterations:int -> pipeline_latency:int -> t
val start : t -> unit

val step : t -> unit
(** Evaluate one clock's transitions. *)

val note_launch : t -> unit
val note_retire : t -> unit
val is_done : t -> bool
