(* Serve metrics: monotonic request counters plus a bounded ring of
   response latencies, shared by the admission thread and the worker
   domains (all updates take the lock; reads snapshot consistently).
   Per-worker completion counts sit outside the lock in an atomic array
   — one slot per worker tid (slot 0 is the admission thread) — so the
   hot per-request bump never contends with a concurrent snapshot. *)

type t = {
  lock : Mutex.t;
  started_s : float;
  mutable received : int;
  mutable ok : int;
  mutable failed : int;
  mutable shed : int;
  mutable deadline : int;
  mutable bad_request : int;
  mutable health : int;
  mutable conns : int;        (* connections accepted (socket mode) *)
  mutable refused : int;      (* connections refused: no reader domain *)
  mutable read_errors : int;  (* request-stream reads that failed *)
  mutable write_errors : int; (* responses lost to a dead connection *)
  samples : float array;   (* latency ring, milliseconds *)
  mutable n_samples : int; (* total ever observed (ring index basis) *)
  by_worker : int Atomic.t array;  (* responses per worker tid *)
}

let ring_capacity = 4096

let create ?(worker_slots = 0) () =
  { lock = Mutex.create ();
    started_s = Unix.gettimeofday ();
    received = 0;
    ok = 0;
    failed = 0;
    shed = 0;
    deadline = 0;
    bad_request = 0;
    health = 0;
    conns = 0;
    refused = 0;
    read_errors = 0;
    write_errors = 0;
    samples = Array.make ring_capacity 0.0;
    n_samples = 0;
    by_worker = Array.init (max 0 worker_slots) (fun _ -> Atomic.make 0) }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let incr_received t = locked t (fun () -> t.received <- t.received + 1)
let incr_ok t = locked t (fun () -> t.ok <- t.ok + 1)
let incr_failed t = locked t (fun () -> t.failed <- t.failed + 1)
let incr_shed t = locked t (fun () -> t.shed <- t.shed + 1)
let incr_deadline t = locked t (fun () -> t.deadline <- t.deadline + 1)
let incr_bad_request t = locked t (fun () -> t.bad_request <- t.bad_request + 1)
let incr_health t = locked t (fun () -> t.health <- t.health + 1)
let incr_conn t = locked t (fun () -> t.conns <- t.conns + 1)
let incr_refused t = locked t (fun () -> t.refused <- t.refused + 1)
let incr_read_error t = locked t (fun () -> t.read_errors <- t.read_errors + 1)

let incr_write_error t =
  locked t (fun () -> t.write_errors <- t.write_errors + 1)

let observe_ms t (ms : float) =
  locked t (fun () ->
      t.samples.(t.n_samples mod ring_capacity) <- ms;
      t.n_samples <- t.n_samples + 1)

let incr_worker t ~tid =
  if tid >= 0 && tid < Array.length t.by_worker then
    Atomic.incr t.by_worker.(tid)

type snapshot = {
  s_uptime_s : float;
  s_received : int;
  s_ok : int;
  s_failed : int;
  s_shed : int;
  s_deadline : int;
  s_bad_request : int;
  s_health : int;
  s_conns : int;
  s_refused : int;
  s_read_errors : int;
  s_write_errors : int;
  s_latency_count : int;  (** samples ever observed (ring keeps the last 4096) *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_max_ms : float;
  s_by_worker : int array;  (* responses per worker tid (0 = admission) *)
}

(* Nearest-rank percentile over the sorted retained samples. *)
let percentile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let snapshot (t : t) : snapshot =
  locked t (fun () ->
      let kept = min t.n_samples ring_capacity in
      let sorted = Array.sub t.samples 0 kept in
      Array.sort Float.compare sorted;
      { s_uptime_s = Unix.gettimeofday () -. t.started_s;
        s_received = t.received;
        s_ok = t.ok;
        s_failed = t.failed;
        s_shed = t.shed;
        s_deadline = t.deadline;
        s_bad_request = t.bad_request;
        s_health = t.health;
        s_conns = t.conns;
        s_refused = t.refused;
        s_read_errors = t.read_errors;
        s_write_errors = t.write_errors;
        s_latency_count = t.n_samples;
        s_p50_ms = percentile sorted 0.50;
        s_p95_ms = percentile sorted 0.95;
        s_max_ms = (if kept = 0 then 0.0 else sorted.(kept - 1));
        s_by_worker = Array.map Atomic.get t.by_worker })
