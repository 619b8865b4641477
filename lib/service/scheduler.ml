(* A work-stealing-free parallel job scheduler over OCaml 5 domains,
   built on the shared {!Pool} abstraction (the same pool the serve
   loop's queue workers use).

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

let default_domains () = Pool.recommended ()

let effective_workers ?(num_domains = 0) (n : int) : int =
  let requested = if num_domains <= 0 then default_domains () else num_domains in
  max 1 (min requested (min (default_domains ()) (max 1 n)))

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
  Pool.run ~workers (fun ~tid ->
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
