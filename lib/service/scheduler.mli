(** Parallel job scheduler over OCaml 5 domains (fanning out through the
    shared {!Pool} abstraction): deterministic result ordering, per-job
    fault isolation, chunked job claiming, and worker counts clamped to
    the hardware parallelism so requesting more domains than cores never
    slows a batch down. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val effective_workers : ?num_domains:int -> int -> int
(** [effective_workers ~num_domains n] is the worker count
    {!parallel_map} would actually use for [n] jobs: the requested count
    ([<= 0] means {!default_domains}), clamped to the hardware
    parallelism and to the job count, floored at 1. Two requests with
    the same effective worker count run the same configuration. *)

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
