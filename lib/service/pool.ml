(* The one worker-pool module under every fan-out in the service stack:
   the serve loop's queue workers and socket readers, and the batch
   scheduler ([parallel_map]) behind [batch], [tune] and network
   planning.

   Three shapes spawn domains:

   - [run]: a scoped pool for a fixed batch of work — the calling domain
     participates as worker 0 (so one worker is plain sequential
     execution and spawns nothing) and the call returns only when every
     worker has finished;
   - [spawn]/[join]: a detached pool of long-lived workers draining a
     queue the caller keeps feeding (the serve loop), joined when the
     stream drains;
   - [dynamic]/[add]/[join_all]: a set whose population is not known up
     front (one reader domain per accepted socket connection).

   Joining is exception-safe in every shape: every domain is joined even
   when one of them (or the caller's own body) raises, and the first
   exception is re-raised afterwards — a dying worker can never strand
   its siblings unjoined. Per-job fault isolation stays in the body the
   caller supplies ([parallel_map] boxes each job's result; the server
   answers each request structurally), so a body exception reaching the
   pool is a bug being surfaced, not swallowed.

   A worker count of 0 (or less) means "auto": [resolve] is the one place
   that turns it into the hardware parallelism. *)

let recommended () = max 1 (Domain.recommended_domain_count ())

let resolve (n : int) : int = if n <= 0 then recommended () else n

type t = {
  size : int;  (* spawned domains; worker slots are 1..size *)
  domains : unit Domain.t array;
}

let size (t : t) : int = t.size

(* Join every domain; re-raise the first exception only after all of
   them are accounted for. *)
let join (t : t) : unit =
  let first_exn = ref None in
  Array.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> if !first_exn = None then first_exn := Some e)
    t.domains;
  match !first_exn with None -> () | Some e -> raise e

let spawn ~(workers : int) (body : tid:int -> unit) : t =
  let workers = max 0 workers in
  { size = workers;
    domains =
      Array.init workers (fun k -> Domain.spawn (fun () -> body ~tid:(k + 1)))
  }

(* A dynamic set of detached domains whose population is not known up
   front — the socket accept loop spawns one reader per accepted
   connection and joins whatever accumulated when the listener stops.
   [join_all] is exception-safe the same way [join] is: every domain is
   joined, then the first exception (if any) is re-raised. *)
type dynamic = {
  dyn_lock : Mutex.t;
  mutable dyn_domains : unit Domain.t list;
}

let dynamic () = { dyn_lock = Mutex.create (); dyn_domains = [] }

let add (d : dynamic) (body : unit -> unit) : unit =
  let dom = Domain.spawn body in
  Mutex.lock d.dyn_lock;
  d.dyn_domains <- dom :: d.dyn_domains;
  Mutex.unlock d.dyn_lock

let join_all (d : dynamic) : unit =
  let doms =
    Mutex.lock d.dyn_lock;
    let ds = d.dyn_domains in
    d.dyn_domains <- [];
    Mutex.unlock d.dyn_lock;
    ds
  in
  let first_exn = ref None in
  List.iter
    (fun dom ->
      match Domain.join dom with
      | () -> ()
      | exception e -> if !first_exn = None then first_exn := Some e)
    doms;
  match !first_exn with None -> () | Some e -> raise e

let run ~(workers : int) (body : tid:int -> unit) : unit =
  let workers = max 1 workers in
  if workers = 1 then body ~tid:0
  else begin
    (* spawned workers take tids 1..workers-1; the caller is tid 0 *)
    let pool =
      { size = workers - 1;
        domains =
          Array.init (workers - 1) (fun k ->
              Domain.spawn (fun () -> body ~tid:(k + 1))) }
    in
    match body ~tid:0 with
    | () -> join pool
    | exception e ->
      (* still join the others before propagating, so no domain leaks *)
      (try join pool with _ -> ());
      raise e
  end

(* ------------------------------------------------------------------ *)
(* The batch scheduler                                                 *)
(* ------------------------------------------------------------------ *)

(* A work-stealing-free parallel job scheduler over [run].

   Jobs are drained in contiguous chunks from a shared atomic counter by
   the workers (the calling domain is worker 0 and does real work between
   claims). Chunked claiming keeps the atomic off the hot path when jobs
   are small; each result lands in its own separately-allocated slot box
   indexed by submission order, so writes from different workers touch
   different cache lines (no false sharing on a shared slot array) and the
   output is deterministic regardless of which domain ran which job.
   The pool's join provides the happens-before edge that makes the slots
   safely readable afterwards. A job that raises is captured as [Error] in
   its own slot — one failing kernel cannot take down the batch.

   Worker count is clamped to the hardware parallelism
   (Domain.recommended_domain_count): spawning more domains than cores
   cannot run anything in parallel but still pays domain startup and
   stop-the-world GC synchronisation per extra domain, which is exactly
   the negative scaling the service bench used to show. *)

let effective_workers ?(num_domains = 0) (n : int) : int =
  max 1 (min (resolve num_domains) (min (recommended ()) (max 1 n)))

let describe_error (e : exn) : string option =
  match e with
  | Roccc_core.Pass.Cancelled reason -> Some ("cancelled: " ^ reason)
  | Faults.Injected _ -> Faults.describe e
  | e -> Roccc_core.Pass.error_message e

let parallel_map ?(num_domains = 0) ?(chunk = 0) ~(f : tid:int -> 'a -> 'b)
    (jobs : 'a array) : ('b, string) result array =
  let n = Array.length jobs in
  let workers = effective_workers ~num_domains n in
  let chunk =
    if chunk > 0 then chunk
    else if workers = 1 then n
    else max 1 (n / (workers * 8))
  in
  (* one box per job: results.(i) is written by exactly one worker and the
     boxes are separate heap blocks, so concurrent writes don't contend *)
  let results : ('b, string) result option ref array =
    Array.init n (fun _ -> ref None)
  in
  let next = Atomic.make 0 in
  let run_one tid i =
    let r =
      (* the claim fault point fires inside the protected computation, so
         an injected fault lands in the job's own slot as [Error] instead
         of killing the worker domain *)
      match
        Faults.trip "scheduler_claim";
        f ~tid jobs.(i)
      with
      | v -> Ok v
      | exception e ->
        let msg =
          match describe_error e with
          | Some msg -> msg
          | None -> Printexc.to_string e
        in
        Error msg
    in
    results.(i) := Some r
  in
  run ~workers (fun ~tid ->
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          let stop = min n (start + chunk) in
          for i = start to stop - 1 do
            run_one tid i
          done;
          loop ()
        end
      in
      loop ());
  Array.map
    (fun slot ->
      match !slot with Some r -> r | None -> Error "job was never scheduled")
    results
