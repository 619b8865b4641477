(** The resilient compile server behind [roccc serve].

    Requests are line-delimited JSON objects read from a channel (stdin,
    or any number of simultaneous Unix-socket connections —
    {!serve_socket} runs a concurrent accept loop); each gets exactly
    one JSON response line, on the connection that sent it. Request
    types: ["compile"] (default — fields [source], [entry], optional
    [options] object, [deadline_ms], [return_vhdl], [id]), ["health"]
    (optional ["drain": true] to wait for quiescence first) and
    ["shutdown"]. Response [status] is one of ["ok"], ["error"] (with a
    [kind]: [bad_request] / [compile] / [injected_fault] / [internal]),
    ["overloaded"] (load shed — the bounded admission queue was full) or
    ["deadline_exceeded"] (cancelled cooperatively at a pass boundary).
    The server answers every admitted line; it never crashes or hangs on
    a request, including under {!Faults} injection.

    Concurrency model: ONE bounded admission queue and ONE pool of
    worker domains serve every connection; each accepted connection gets
    a reader domain that parses and enqueues, and a write-locked output
    channel so concurrent workers never interleave response bytes. EOF
    on one connection closes only that connection (after its own
    admitted requests are answered) and never stalls the others. *)

type limits = {
  workers : int;  (** worker domains; [0] picks the hardware default *)
  queue_depth : int;  (** bound on the admission queue; beyond it, shed *)
  deadline_ms : float option;
      (** default per-request deadline; a request's own [deadline_ms]
          overrides it *)
  max_request_bytes : int;  (** longer request lines are rejected *)
}

val default_limits : limits
(** workers auto, depth 32, no deadline, 8 MiB request bound. *)

(** {2 Flag validation}

    Shared with the CLI so [--jobs -1] and friends die with a friendly
    message and exit code 2 instead of a crash or a silent surprise. *)

val check_positive_int : flag:string -> int -> (int, string) result
val check_positive_float : flag:string -> float -> (float, string) result

val check_jobs : flag:string -> int -> (int, string) result
(** Worker-count convention shared by [serve], [batch] and [tune]:
    [0] means auto (the machine's recommended domain count) and is
    accepted; negatives are usage errors. *)

val check_positive_int_list :
  flag:string -> int list -> (int list, string) result
(** Sweep/tune axis validation: rejects empty lists and non-positive
    values; deduplicates repeated values (first occurrence wins) so a
    duplicated sweep point is compiled once, not twice. *)

val check_nonneg_int_list :
  flag:string -> int list -> (int list, string) result
(** Like {!check_positive_int_list} but admits [0] — used for the
    wide-operator stage-budget axis where [0] means "natural depth". *)

val check_positive_float_list :
  flag:string -> float list -> (float list, string) result
val validate_limits : limits -> (limits, string) result

type t

val create :
  ?cache:Cache.t ->
  ?config:Roccc_core.Pass.config ->
  ?trace:Trace.t ->
  ?limits:limits ->
  unit ->
  t
(** The server value owns the metrics and may serve several request
    streams in sequence; metrics and cache persist across streams. *)

val serve : t -> in_channel -> out_channel -> Metrics.snapshot
(** Serve one stream: spawn the workers, admit until EOF / a shutdown
    request / {!request_stop}, then drain — queued requests finish,
    workers join — and return the final metrics snapshot. *)

val serve_socket :
  ?poll_interval_s:float -> t -> Unix.file_descr -> Metrics.snapshot
(** Serve a listening socket concurrently: accept connections until a
    shutdown request (on any connection) or {!request_stop}, running a
    reader domain per connection over one shared queue and worker pool.
    On stop: stop accepting, nudge idle readers out of their blocked
    reads, answer everything already admitted from every connection,
    join workers, and return the final snapshot. [poll_interval_s]
    (default 0.05) bounds how long a stop request can go unnoticed while
    no client is connecting. A connection for which no reader domain can
    be spawned (the runtime's domain limit) gets one ["overloaded"] line
    with a null [id] and is closed, counted as [connections.refused] in
    health; the server keeps serving. *)

val request_stop : t -> unit
(** Ask the serve loop to stop admitting (async-signal-safe: sets an
    atomic flag; safe to call from a signal handler). *)

val stop_requested : t -> bool

val metrics : t -> Metrics.t

val health_json : t -> Json.t
(** The metrics snapshot a ["health"] request returns: request counters,
    latency percentiles, live queue depth/capacity, the worker pool
    (configured and effective counts plus per-worker response counts),
    connection counters, cache statistics, and fault-injection
    counters. *)
