(* The content-addressed pass cache.

   In memory it maps fingerprints to intermediate pipeline states — the
   ones a compile keeps, keyed by the chained per-pass fingerprints — and
   to finished artifacts (VHDL + estimates). On disk (optional, under
   _roccc_cache/) only artifacts are persisted: they are plain strings and
   numbers, so a marshalled artifact is safe to reload in any later
   process, whereas the in-memory IR values are not worth the versioning
   hazard.

   The memory tier is one hashtable under one mutex: at the worker
   counts the service runs (<= nproc), lookups almost never find the
   lock held, and [contended] counts the ones that do. Stat counters
   live in [Atomic.int]s outside the lock, so a counter bump never
   contends with a lookup. The disk tier is a single shared directory —
   fingerprinted filenames already give per-artifact isolation there.

   All operations are thread-safe; the cache is shared by the pool's
   worker domains. *)

module Pass = Roccc_core.Pass

type artifact = {
  art_entry : string;
  art_vhdl : (string * string) list;
      (* filename -> contents: the design's files plus the optional system
         wrapper, exactly what a batch compile writes out *)
  art_slices : int;
  art_operator_slices : int;
  art_clock_mhz : float;
  art_latency : int;
  art_latch_bits : int;
  art_pass_trace : string list;
}

type value =
  | State of Pass.state
      (* pipeline state after one pass (never mutated once stored) *)
  | Artifact of artifact

type stats = {
  hits : int;       (* in-memory fingerprint hits *)
  disk_hits : int;  (* artifact loaded from _roccc_cache/ *)
  misses : int;
  stores : int;
  retries : int;    (* disk I/O attempts retried after a transient error *)
  io_errors : int;  (* disk operations degraded after exhausting retries *)
  tmp_swept : int;  (* stale *.art.tmp.<pid> files removed at open *)
  contended : int;  (* lock acquisitions that found the lock held *)
  flights : int;    (* counted single-flight leaders: compile executions *)
  coalesced : int;  (* followers that waited on a leader instead of compiling *)
}

type t = {
  lock : Mutex.t;
  table : (string, value) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  contended : int Atomic.t;
  disk_dir : string option;
  disk_hits : int Atomic.t;
  retries : int Atomic.t;
  io_errors : int Atomic.t;
  tmp_swept : int;
  (* single-flight registry: keys whose artifact or state is being
     computed. One lock + condition for the whole table — entries are
     rare (one per concurrently computed distinct key) and the lock is
     held only for registry bookkeeping, never across a computation. *)
  fl_lock : Mutex.t;
  fl_cond : Condition.t;
  fl_inflight : (string, unit) Hashtbl.t;
  fl_flights : int Atomic.t;
  fl_coalesced : int Atomic.t;
}

(* Bump when the artifact record changes shape: a stale marshalled value
   from an older build must be ignored, not mis-read. *)
let disk_magic = "ROCCC-ART2"

(* [save_artifact] writes <key>.art.tmp.<pid> then renames; a process
   that dies between the two strands the tmp file forever (the pid in the
   name means no later process ever reuses it). Sweep the debris when the
   cache opens — but only debris: another process sharing the directory
   (a [batch --cache] beside a [serve --cache]) may be mid-write at that
   very moment, so a tmp file is removed only when its owning pid is
   dead, or (when the pid cannot be read or is recycled) its mtime is
   older than a generous threshold. A live sibling's in-flight write is
   never deleted. *)
let tmp_marker = ".art.tmp."

let is_tmp_name (name : string) : bool =
  let n = String.length name and m = String.length tmp_marker in
  let rec scan i =
    i + m <= n
    && (String.equal (String.sub name i m) tmp_marker || scan (i + 1))
  in
  scan 0

(* The pid baked into a tmp name: everything after the last ".art.tmp.". *)
let tmp_owner_pid (name : string) : int option =
  let m = String.length tmp_marker in
  let rec last_at i best =
    if i + m > String.length name then best
    else if String.equal (String.sub name i m) tmp_marker then
      last_at (i + 1) (Some (i + m))
    else last_at (i + 1) best
  in
  Option.bind (last_at 0 None) (fun start ->
      let suffix = String.sub name start (String.length name - start) in
      match int_of_string_opt suffix with
      | Some pid when pid > 0 -> Some pid
      | Some _ | None -> None)

(* [kill pid 0] probes liveness without signalling: ESRCH means dead;
   EPERM (or anything else) means some process has that pid — treat it
   as alive, erring on the side of keeping the file. *)
let default_pid_alive (pid : int) : bool =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true

(* Even a live-looking pid may be a recycled number; past this age the
   write it named cannot still be in flight. *)
let tmp_max_age_s = 600.0

let sweep_stale_tmp ?(max_age_s = tmp_max_age_s)
    ?(pid_alive = default_pid_alive) (dir : string) : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    let now = Unix.gettimeofday () in
    Array.fold_left
      (fun n f ->
        if not (is_tmp_name f) then n
        else
          let path = Filename.concat dir f in
          let old_enough () =
            match Unix.stat path with
            | st -> now -. st.Unix.st_mtime > max_age_s
            | exception Unix.Unix_error _ -> false
          in
          let stale =
            match tmp_owner_pid f with
            | Some pid -> (not (pid_alive pid)) || old_enough ()
            | None -> old_enough ()
          in
          if stale then
            match Sys.remove path with
            | () -> n + 1
            | exception Sys_error _ -> n
          else n)
      0 files

let create ?disk_dir () =
  (match disk_dir with
  | Some dir when not (Sys.file_exists dir) -> (
    try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  | _ -> ());
  let tmp_swept =
    match disk_dir with Some dir -> sweep_stale_tmp dir | None -> 0
  in
  { lock = Mutex.create ();
    table = Hashtbl.create 256;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    contended = Atomic.make 0;
    disk_dir;
    disk_hits = Atomic.make 0;
    retries = Atomic.make 0;
    io_errors = Atomic.make 0;
    tmp_swept;
    fl_lock = Mutex.create ();
    fl_cond = Condition.create ();
    fl_inflight = Hashtbl.create 16;
    fl_flights = Atomic.make 0;
    fl_coalesced = Atomic.make 0 }

(* Take the table lock, counting the acquisitions that had to wait. *)
let locked (t : t) f =
  if not (Mutex.try_lock t.lock) then begin
    Atomic.incr t.contended;
    Mutex.lock t.lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Transient disk I/O — including faults injected at the cache_read /
   cache_write points — is retried a few times with jittered exponential
   backoff before the operation degrades (a failed read becomes a miss, a
   failed write is dropped); the cache never takes a request down. The
   jitter is a deterministic rotation, not randomness, so fault-injection
   runs stay reproducible. *)
let io_attempts = 3
let backoff_base_s = 0.0005
let jitter_phase = Atomic.make 0

let with_io_retries (t : t) (f : unit -> 'a) : ('a, exn) result =
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception ((Sys_error _ | Faults.Injected _) as e) ->
      if attempt + 1 >= io_attempts then Error e
      else begin
        Atomic.incr t.retries;
        let k = Atomic.fetch_and_add jitter_phase 1 in
        let jitter = float_of_int (k land 7) /. 8.0 in
        Unix.sleepf
          (backoff_base_s *. float_of_int (1 lsl attempt) *. (1.0 +. jitter));
        go (attempt + 1)
      end
  in
  go 0

let count_io_error t = Atomic.incr t.io_errors

let disk_path t key =
  Option.map
    (fun dir -> Filename.concat dir (Fingerprint.to_hex key ^ ".art"))
    t.disk_dir

let load_artifact path : artifact option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (String.length disk_magic) with
        | magic when String.equal magic disk_magic -> (
          match (Marshal.from_channel ic : artifact) with
          | a -> Some a
          | exception _ -> None)
        | _ -> None
        | exception End_of_file -> None)

let save_artifact t path (a : artifact) =
  (* Write-then-rename so a concurrent reader never sees a torn file. *)
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let write () =
    Faults.trip "cache_write";
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc disk_magic;
        Marshal.to_channel oc a []);
    Sys.rename tmp path
  in
  match with_io_retries t write with
  | Ok () -> ()
  | Error _ ->
    (* degrade: drop the disk copy, keep serving from memory *)
    count_io_error t;
    (try Sys.remove tmp with Sys_error _ -> ())

type origin = Memory | Disk

let find_raw (t : t) (key : Fingerprint.t) : (value * origin) option =
  let hex = Fingerprint.to_hex key in
  let mem_hit = locked t (fun () -> Hashtbl.find_opt t.table hex) in
  match mem_hit with
  | Some v ->
    Atomic.incr t.hits;
    Some (v, Memory)
  | None -> (
    match disk_path t key with
    | Some path when Sys.file_exists path -> (
      match load_artifact path with
      | Some a ->
        Atomic.incr t.disk_hits;
        locked t (fun () -> Hashtbl.replace t.table hex (Artifact a));
        Some (Artifact a, Disk)
      | None ->
        Atomic.incr t.misses;
        None)
    | _ ->
      Atomic.incr t.misses;
      None)

let find (t : t) (key : Fingerprint.t) : (value * origin) option =
  match
    with_io_retries t (fun () ->
        Faults.trip "cache_read";
        find_raw t key)
  with
  | Ok r -> r
  | Error _ ->
    (* degrade: a read that keeps failing is a miss, never a crash *)
    count_io_error t;
    Atomic.incr t.misses;
    None

(* Pipeline states are never persisted, so a state lookup skips the disk
   tier and its I/O fault point: a miss costs no file-system probe. *)
let find_state (t : t) (key : Fingerprint.t) : Pass.state option =
  let hex = Fingerprint.to_hex key in
  match locked t (fun () -> Hashtbl.find_opt t.table hex) with
  | Some (State st) ->
    Atomic.incr t.hits;
    Some st
  | Some (Artifact _) | None ->
    Atomic.incr t.misses;
    None

let store (t : t) (key : Fingerprint.t) (v : value) : unit =
  let hex = Fingerprint.to_hex key in
  Atomic.incr t.stores;
  locked t (fun () -> Hashtbl.replace t.table hex v);
  match v, disk_path t key with
  | Artifact a, Some path -> save_artifact t path a
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Single-flight                                                       *)
(* ------------------------------------------------------------------ *)

(* Concurrent computations of one key collapse to one: the first caller
   to enter becomes the leader and computes; every concurrent caller of
   the same key blocks until the leader exits, then re-probes for what
   the leader stored. [counted] flights (compile executions) bump
   [flights] and [coalesced]; state flights do not. The registry spans
   only this process; across processes sharing a cache directory the
   disk tier deduplicates at artifact granularity instead. *)
let enter_flight (t : t) ~(counted : bool) (hex : string) : bool =
  Mutex.lock t.fl_lock;
  let leader = not (Hashtbl.mem t.fl_inflight hex) in
  if leader then begin
    Hashtbl.add t.fl_inflight hex ();
    if counted then Atomic.incr t.fl_flights
  end
  else begin
    if counted then Atomic.incr t.fl_coalesced;
    while Hashtbl.mem t.fl_inflight hex do
      Condition.wait t.fl_cond t.fl_lock
    done
  end;
  Mutex.unlock t.fl_lock;
  leader

let exit_flight (t : t) (hex : string) : unit =
  Mutex.lock t.fl_lock;
  Hashtbl.remove t.fl_inflight hex;
  Condition.broadcast t.fl_cond;
  Mutex.unlock t.fl_lock

type 'a flight = Found of 'a | Computed of 'a | Coalesced of 'a

let single_flight (t : t) (key : Fingerprint.t) ~(counted : bool)
    ~(find : unit -> 'a option) ~(compute : unit -> 'a) : 'a flight =
  match find () with
  | Some v -> Found v
  | None ->
    let hex = Fingerprint.to_hex key in
    if enter_flight t ~counted hex then
      (* exited on success and failure alike: a dying leader must wake
         its followers, who then compute for themselves *)
      Fun.protect
        ~finally:(fun () -> exit_flight t hex)
        (fun () ->
          (* re-probe under leadership: a previous leader may have stored
             and exited between the probe above and winning the flight;
             then nothing executes and a counted flight is retracted, so
             [flights] stays an exact execution count *)
          match find () with
          | Some v ->
            if counted then Atomic.decr t.fl_flights;
            Found v
          | None -> Computed (compute ()))
    else
      match find () with
      | Some v -> Coalesced v
      | None -> Computed (compute ())

(* Each counter is individually exact (atomic); the snapshot as a whole
   is consistent whenever the cache is quiescent — the accounting the
   tests and the health endpoint rely on, taken after a drain. *)
let stats (t : t) : stats =
  { hits = Atomic.get t.hits;
    disk_hits = Atomic.get t.disk_hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    retries = Atomic.get t.retries;
    io_errors = Atomic.get t.io_errors;
    tmp_swept = t.tmp_swept;
    contended = Atomic.get t.contended;
    flights = Atomic.get t.fl_flights;
    coalesced = Atomic.get t.fl_coalesced }

let default_disk_dir = "_roccc_cache"
