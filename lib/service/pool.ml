(* The one worker-pool abstraction under every fan-out in the service
   stack.

   Before this module existed there were two divergent domain-spawning
   paths: the batch scheduler's inline [Array.init ... Domain.spawn] and
   the serve loop's hand-rolled worker array. Both reduce to the same two
   shapes, which is all this module provides:

   - [run]: a scoped pool for a fixed batch of work — the calling domain
     participates as worker 0 (so one worker is plain sequential
     execution and spawns nothing) and the call returns only when every
     worker has finished;
   - [spawn]/[join]: a detached pool of long-lived workers draining a
     queue the caller keeps feeding (the serve loop), joined when the
     stream drains.

   Joining is exception-safe in both shapes: every domain is joined even
   when one of them (or the caller's own body) raises, and the first
   exception is re-raised afterwards — a dying worker can never strand
   its siblings unjoined. Per-job fault isolation stays where it always
   was, in the body the caller supplies (the scheduler boxes each job's
   result; the server answers each request structurally), so a body
   exception reaching the pool is a bug being surfaced, not swallowed. *)

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
