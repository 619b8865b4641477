(** The single worker-pool module behind every domain fan-out in the
    service stack: the batch scheduler ({!parallel_map}, used by [batch],
    [tune] and network planning) and the serve loop's queue workers and
    socket readers all build on these shapes instead of hand-rolling
    [Domain.spawn] arrays.

    Joins are exception-safe: every spawned domain is joined even when
    one raises, and the first exception is re-raised only afterwards. *)

val recommended : unit -> int
(** Hardware parallelism ([Domain.recommended_domain_count]), floored
    at 1. *)

val resolve : int -> int
(** [resolve n] is [n] for positive [n] and {!recommended} for [n <= 0]
    — the one place the "[0] means auto" worker-count convention is
    written. *)

type t
(** A detached pool of spawned worker domains. *)

val spawn : workers:int -> (tid:int -> unit) -> t
(** [spawn ~workers body] starts [workers] domains, each running
    [body ~tid] with [tid] in [1..workers]; slot 0 is left to the
    calling domain (the serve loop's admission thread). Negative counts
    are treated as 0. The caller must eventually {!join}. *)

val join : t -> unit
(** Join every domain in the pool. If any body raised, the first
    exception is re-raised after all domains are joined. *)

val size : t -> int
(** Number of spawned domains. *)

type dynamic
(** A detached set of domains whose population is not known up front —
    the socket accept loop spawns one reader domain per accepted
    connection and joins whatever accumulated when the listener stops. *)

val dynamic : unit -> dynamic

val add : dynamic -> (unit -> unit) -> unit
(** Spawn one more domain into the set. Raises [Failure] (from
    [Domain.spawn]) when the runtime's domain limit is reached; the set
    is then unchanged. *)

val join_all : dynamic -> unit
(** Join every domain added so far. If any body raised, the first
    exception is re-raised after all domains are joined. *)

val run : workers:int -> (tid:int -> unit) -> unit
(** [run ~workers body] executes [body ~tid] once per worker slot
    [0..workers-1], the calling domain participating as tid 0 (so
    [workers = 1] spawns nothing and is plain sequential execution), and
    returns once every slot has finished — even if a body raised, in
    which case every remaining domain is still joined before the first
    exception propagates. *)

(** {1 The batch scheduler}

    Deterministic result ordering, per-job fault isolation, chunked job
    claiming, and worker counts clamped to the hardware parallelism so
    requesting more domains than cores never slows a batch down. *)

val effective_workers : ?num_domains:int -> int -> int
(** [effective_workers ~num_domains n] is the worker count
    {!parallel_map} would actually use for [n] jobs: the requested count
    ({!resolve}d), clamped to the hardware parallelism and to the job
    count, floored at 1. Two requests with the same effective worker
    count run the same configuration. *)

val describe_error : exn -> string option
(** The message a failed job reports: a compiler error's text
    ({!Roccc_core.Pass.error_message}), a cancellation or an injected
    fault; [None] for any other exception. *)

val parallel_map :
  ?num_domains:int ->
  ?chunk:int ->
  f:(tid:int -> 'a -> 'b) ->
  'a array ->
  ('b, string) result array
(** [parallel_map ~f jobs] fans [jobs] across {!effective_workers} workers
    (the calling domain participates as worker 0, so one worker is plain
    sequential execution and spawns nothing). Workers claim contiguous
    chunks of [chunk] jobs (default [n / (workers * 8)], floored at 1)
    from a shared atomic counter, and every result lands in its own
    separately-allocated slot, avoiding false sharing between workers.
    [f] receives the worker slot as [tid].

    Result [i] always corresponds to job [i]. A job that raises yields
    [Error msg] in its slot — {!describe_error}'s message, or
    [Printexc.to_string] for an exception it does not know — and the
    remaining jobs still run. *)
