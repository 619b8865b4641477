(** Content-addressed pass cache: fingerprints to pipeline states and
    artifacts, shared by the pool's worker domains (all operations are
    thread-safe).

    The memory tier is one table under one mutex. Stat counters are
    [Atomic.int]s outside the lock — a counter bump never contends with
    a lookup. The disk tier is a single shared directory.

    Pipeline states (the ones a compile keeps, keyed by chained per-pass
    fingerprints) are memoized in memory only — no pass mutates a state,
    so one is shared as is by every later compile that reaches it;
    finished artifacts — the VHDL text plus estimates — are additionally
    persisted under a disk directory when one is given, surviving the
    process. Which states are stored is the caller's choice
    ({!Service.compile_cached} stores mid-end states unless asked to share
    the back end). Both are computed once per key under
    {!single_flight}. *)

(** A finished compilation, reduced to plain data (safe to marshal). *)
type artifact = {
  art_entry : string;
  art_vhdl : (string * string) list;  (** filename -> contents *)
  art_slices : int;
  art_operator_slices : int;
  art_clock_mhz : float;
  art_latency : int;
  art_latch_bits : int;
  art_pass_trace : string list;
}

type value =
  | State of Roccc_core.Pass.state
      (** pipeline state after one pass (never mutated once stored) *)
  | Artifact of artifact

type stats = {
  hits : int;  (** in-memory fingerprint hits *)
  disk_hits : int;  (** artifacts reloaded from the disk directory *)
  misses : int;
      (** probes that found nothing, a {!single_flight} leader's or
          follower's re-probe included *)
  stores : int;
  retries : int;
      (** disk I/O attempts retried (with jittered exponential backoff)
          after a transient error or an injected fault *)
  io_errors : int;
      (** disk operations degraded after exhausting retries: a failed
          read became a miss, a failed write was dropped *)
  tmp_swept : int;
      (** stale [*.art.tmp.<pid>] files (stranded by a process that died
          mid-write) removed when the cache opened *)
  contended : int;  (** table-lock acquisitions that found the lock held *)
  flights : int;
      (** single-flight leaders of compile executions (see
          {!single_flight}); state flights are not counted *)
  coalesced : int;
      (** single-flight followers — concurrent duplicate compiles that
          waited on a leader and shared its artifact instead of
          executing; state flights are not counted *)
}

type t

val create : ?disk_dir:string -> unit -> t
(** [create ()] is an in-memory cache; [create ~disk_dir ()] additionally
    persists artifacts under [disk_dir] (created if missing), first
    sweeping any stale write-temporary files a dead process stranded. *)

val sweep_stale_tmp :
  ?max_age_s:float -> ?pid_alive:(int -> bool) -> string -> int
(** Remove stranded [*.art.tmp.<pid>] write-temporaries from a cache
    directory, returning how many were removed. Safe for several
    processes sharing the directory: a tmp file is removed only when its
    owning pid is dead ([kill pid 0] raises [ESRCH]) or its mtime is
    older than [max_age_s] (default 600 s) — a live sibling's in-flight
    write is never deleted. [pid_alive] is injectable for tests.
    {!create} runs this automatically when given a [disk_dir]. *)

(** How {!single_flight} produced its value. *)
type 'a flight =
  | Found of 'a  (** [find] had it, on the first probe or under leadership *)
  | Computed of 'a
      (** this caller ran [compute]: as the leader, or after its leader
          failed *)
  | Coalesced of 'a
      (** a concurrent leader computed it while this caller waited *)

val single_flight :
  t ->
  Fingerprint.t ->
  counted:bool ->
  find:(unit -> 'a option) ->
  compute:(unit -> 'a) ->
  'a flight
(** Compute [key]'s value once among concurrent callers. [find] probes
    the cache; on a miss the first caller becomes the leader, probes
    again (a previous leader may just have stored) and runs [compute],
    which stores what later callers should [find]. Concurrent callers of
    the same key block until the leader exits, then probe again; if the
    leader raised — a pass error, {!Roccc_core.Pass.Cancelled}, an
    injected fault — they find nothing and compute for themselves. The
    leader exits its flight whether [compute] returns or raises.

    A flight is held only while [compute] runs, so a [compute] that
    waits on no flight itself (a pipeline state's: it only steps passes)
    can never be part of a wait cycle; a compile's [compute] waits only
    on such state flights. [counted] flights bump [flights] and
    [coalesced] (the service counts artifact compiles, not states). The
    registry spans one process; across processes sharing a cache
    directory the disk tier deduplicates at artifact granularity
    instead. *)

type origin = Memory | Disk

val find : t -> Fingerprint.t -> (value * origin) option
(** Memory first, then disk (artifacts only); counts a hit or miss.
    Carries the ["cache_read"] fault point; transient failures are
    retried, then degrade to a miss. *)

val find_state : t -> Fingerprint.t -> Roccc_core.Pass.state option
(** A pipeline state from the memory tier (states are never persisted, so
    no disk probe); counts a hit or miss. *)

val store : t -> Fingerprint.t -> value -> unit

val stats : t -> stats
(** Each counter is individually exact; the snapshot as a whole is
    consistent whenever the cache is quiescent (e.g. after a batch or a
    drain). *)

val default_disk_dir : string
(** ["_roccc_cache"] — the conventional disk cache location. *)
