(** Serve metrics: monotonic request counters plus a bounded ring of
    response latencies. Thread-safe; shared by the admission thread and
    the worker domains. *)

type t

val create : ?worker_slots:int -> unit -> t
(** [worker_slots] sizes the per-worker response counter array: one slot
    per worker tid, slot 0 for the admission thread (so a server with N
    workers passes [N + 1]). Defaults to 0 (no per-worker tracking). *)

val incr_received : t -> unit
(** Every request line read (compile, health, malformed, oversized). *)

val incr_ok : t -> unit
val incr_failed : t -> unit
val incr_shed : t -> unit
val incr_deadline : t -> unit
val incr_bad_request : t -> unit
val incr_health : t -> unit

val incr_conn : t -> unit
(** One accepted socket connection. *)

val incr_refused : t -> unit
(** One socket connection refused because no reader domain could be
    spawned for it. *)

val incr_read_error : t -> unit
(** One failed request-stream read (a [Sys_error] that was not a
    requested stop). *)

val incr_write_error : t -> unit
(** One response dropped because its connection's output channel failed
    (e.g. the client disconnected before the answer was written). *)

val observe_ms : t -> float -> unit
(** Record one request's enqueue-to-response latency, in milliseconds. *)

val incr_worker : t -> tid:int -> unit
(** Count one response against worker slot [tid] (atomic, lock-free; a
    no-op for tids outside the slot array). *)

type snapshot = {
  s_uptime_s : float;
  s_received : int;
  s_ok : int;
  s_failed : int;
  s_shed : int;
  s_deadline : int;
  s_bad_request : int;
  s_health : int;
  s_conns : int;  (** connections accepted (socket mode) *)
  s_refused : int;  (** connections refused for want of a reader domain *)
  s_read_errors : int;  (** failed request-stream reads *)
  s_write_errors : int;  (** responses lost to dead connections *)
  s_latency_count : int;
      (** samples ever observed (the ring keeps the most recent 4096) *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_max_ms : float;
  s_by_worker : int array;
      (** responses per worker tid (slot 0 = the admission thread) *)
}

val snapshot : t -> snapshot
(** Consistent copy of all counters plus nearest-rank latency
    percentiles over the retained samples. *)
