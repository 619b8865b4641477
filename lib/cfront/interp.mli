(** Reference interpreter for the C subset — the software semantics that the
    generated hardware is co-simulated against ("the soft nodes, by
    themselves, will have the same behavior on a CPU compared with the whole
    data path on a FPGA", paper §4.2.2). Values are int64, truncated to the
    declared kind at every assignment. *)

exception Error of string

type runtime

val default_max_steps : int

val create :
  ?max_steps:int ->
  ?lut_funcs:(string * (int64 -> int64)) list ->
  Ast.program ->
  runtime
(** Build a runtime: globals allocated, lookup-table functions registered,
    every function compiled once to closures over its own frame of
    unboxed slots. [max_steps] bounds total evaluation steps (guards
    non-termination): one per expression node, statement and loop
    iteration. *)

val init_globals : runtime -> unit
(** Re-evaluate constant global initializers (called by {!run}). *)

(** Result of running a kernel. *)
type outcome = {
  return_value : int64 option;
  pointer_outputs : (string * int64) list;
      (** values written through pointer output parameters *)
  arrays : (string * int64 array) list;
      (** final contents of every array parameter *)
}

val run :
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  runtime ->
  string ->
  outcome
(** [run rt fname] executes function [fname]. [scalars] binds scalar
    parameters (all required); [arrays] provides array parameter contents
    (unlisted arrays start zeroed); pointer parameters are outputs and need
    no argument. Globals are re-initialized on every call. *)

val read_global : runtime -> string -> int64 option
(** Read a global scalar's current value (after {!run}); [None] when the
    name is not a scalar global. *)

val run_source :
  ?luts:(string * Semant.lut_signature) list ->
  ?lut_funcs:(string * (int64 -> int64)) list ->
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  string ->
  string ->
  outcome
(** Parse, check and run a source string in one step. *)
