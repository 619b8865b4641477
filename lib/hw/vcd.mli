(** Value-change-dump (VCD) rendering of execution-model runs, loadable into
    GTKWave: window inputs at their launch cycles, outputs at their retire
    cycles, and the controller state. *)

type signal = {
  sig_name : string;
  sig_bits : int;
  changes : (int * int64) list;  (** (cycle, value), increasing cycles *)
}

type t = {
  design : string;
  timescale_ns : int;
  signals : signal list;
  end_cycle : int;
}

val ident_of_index : int -> string
(** Compact VCD identifier for the i-th signal (printable ASCII). *)

val render : t -> string
(** Render as VCD text; raises {!Roccc_util.Diag.Error} on malformed signals. *)

val of_simulation :
  design:string -> Roccc_hir.Kernel.t -> Engine.result -> t
(** Build a dump from a kernel and its simulation result. *)
