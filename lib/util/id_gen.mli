(** Deterministic integer id generators. *)

type t

val create : ?start:int -> unit -> t
(** [create ()] makes a generator starting at [start] (default 0). *)

val fresh : t -> int
(** [fresh t] returns the next id and advances the generator. *)

val peek : t -> int
(** [peek t] is the id the next [fresh] call would return. *)

val reset : t -> unit
(** [reset t] restarts the generator at its start value. *)
