(** The smart buffer (paper §4.1, reference [18]): generated from the memory
    access pattern — bus size, window size, data size, sliding-window
    stride — it reuses live input data so each array element is fetched from
    memory exactly once. *)

(** Static configuration derived from the kernel's access pattern. All
    per-dimension lists are outermost-first; [window_offsets],
    [stride]/[iterations]/[lower] have one entry per array dimension. *)
type config = {
  element_bits : int;
  element_signed : bool;
  bus_elements : int;  (** elements delivered per memory access *)
  array_dims : int list;
  window_offsets : int list list;  (** offsets consumed per iteration *)
  stride : int list;  (** window advance per iteration *)
  iterations : int list;  (** iteration count per loop dimension *)
  lower : int list;  (** first window origin *)
}

type stats = {
  mutable fetched_elements : int;
  mutable exported_windows : int;
}

type t
(** A buffer instance: the words that have arrived, unboxed, and the
    next window's position, with the window's shape resolved to flat
    offsets once. *)

val config : t -> config

val capacity_bits : config -> int
(** Register bits of the generated buffer: [extent + bus - 1] elements for
    1-D windows, line buffers [(rows-1)*row_length + cols + bus - 1] for
    2-D. *)

val create : config -> t
(** Raises {!Roccc_util.Diag.Error} for empty buses or >2-D arrays. *)

val push : t -> Roccc_util.Words.t -> int -> unit
(** [push b src count] delivers the next memory word: the first [count]
    words of [src] (up to [bus_elements] values, row-major, in order — the
    input address generator's contract). *)

val window_ready : t -> bool
(** Is the next window fully buffered? *)

val pop_window : t -> Roccc_util.Words.t -> int -> bool
(** [pop_window b dst at] exports the next window's values, in offset order,
    to words [at ..] of [dst] and advances; false, writing nothing, while data
    is missing or once iteration completes. Raises {!Roccc_util.Diag.Error}
    when the window reaches outside the array. *)

val finished : t -> bool

val stats : t -> stats

val naive_fetches : config -> int
(** Memory traffic of a baseline that refetches the whole window every
    iteration (the Streams-C-style comparison of paper §3). *)

val reuse_ratio : t -> float
(** [naive_fetches / fetched_elements] — the data-reuse factor. *)
