(** Structured tracing: per-pass and per-job spans collected across worker
    domains (thread-safe), exported as Chrome [trace_event] JSON. *)

type arg = Int of int | Float of float | Str of string

type span = {
  sp_name : string;
  sp_cat : string;  (** ["pass"], ["job"], ... *)
  sp_tid : int;  (** worker slot *)
  sp_start_s : float;  (** absolute wall-clock seconds *)
  sp_dur_s : float;
  sp_args : (string * arg) list;
}

type t

val create : unit -> t

val add_span :
  t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  tid:int ->
  name:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  unit

val spans : t -> span list
(** All spans, in chronological order. *)

(** A named value sampled over time (Chrome ["C"] events) — e.g. the
    serve loop's queue depth. *)
type counter = {
  c_name : string;
  c_tid : int;
  c_ts_s : float;  (** absolute wall-clock seconds, stamped at add time *)
  c_value : float;
}

val add_counter : t -> ?tid:int -> name:string -> value:float -> unit -> unit

(** A point in time worth a tick mark (Chrome ["i"] events) — a
    connection opening or closing. *)
type instant = {
  i_name : string;
  i_tid : int;
  i_ts_s : float;  (** absolute wall-clock seconds, stamped at add time *)
  i_args : (string * arg) list;
}

val add_instant :
  t -> ?tid:int -> ?args:(string * arg) list -> name:string -> unit -> unit

val to_chrome_json : ?meta:(string * arg) list -> t -> string
(** The Chrome trace_event document: [{"traceEvents": [...], "meta": ...}].
    Load it at chrome://tracing or ui.perfetto.dev. [meta] carries
    batch-level summary values (wall time, cache hits, ...). *)

val escape : string -> string
(** JSON string-body escaping (shared with {!Json}). *)
