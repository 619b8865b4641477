(** The single worker-pool abstraction behind every domain fan-out in
    the service stack: the batch scheduler ({!Scheduler.parallel_map},
    used by [batch] and [tune]) and the serve loop's queue workers both
    build on these two shapes instead of hand-rolling [Domain.spawn]
    arrays.

    Joins are exception-safe: every spawned domain is joined even when
    one raises, and the first exception is re-raised only afterwards. *)

val recommended : unit -> int
(** Hardware parallelism ([Domain.recommended_domain_count]), floored
    at 1. *)

val resolve : int -> int
(** [resolve n] is [n] for positive [n] and {!recommended} for [n <= 0]
    — the shared "[0] means auto" worker-count convention. *)

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
