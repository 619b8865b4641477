(* The resilient compile server behind `roccc serve`.

   Line-delimited JSON requests come in over connections (stdin, or any
   number of simultaneous Unix-socket connections — {!serve_socket} runs
   a concurrent accept loop); one JSON response line goes out per
   request, on the connection that sent it. Each connection gets a
   reader that parses, validates and either answers immediately (health,
   malformed input, load shed) or enqueues the request on ONE shared
   bounded queue that ONE shared pool of worker domains drains; each
   connection's output channel is write-locked so concurrent workers
   never interleave response bytes.

   Resilience properties, each deterministic and testable under
   {!Faults}:
   - bounded admission queue: when full, the request is shed with a
     structured "overloaded" response instead of growing without bound;
   - per-request deadlines: checked when the worker claims the request
     and again at every pass boundary via the pass manager's [cancel]
     hook, answering "deadline_exceeded" instead of hanging;
   - every failure — compile error, injected fault, even an unexpected
     exception — becomes a structured "error" response; the server never
     crashes on a request;
   - fair drain and shutdown: EOF on one connection closes only that
     connection (once its own admitted requests are answered) and never
     stalls the others; a shutdown request or SIGTERM ({!request_stop})
     stops accepting everywhere, then every queued request from every
     connection finishes before the workers join. *)

module Pass = Roccc_core.Pass
module Driver = Roccc_core.Driver
module Area = Roccc_fpga.Area

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Limits and flag validation                                          *)
(* ------------------------------------------------------------------ *)

type limits = {
  workers : int;       (* worker domains; 0 = Pool.recommended *)
  queue_depth : int;   (* admission queue bound *)
  deadline_ms : float option;  (* default per-request deadline *)
  max_request_bytes : int;     (* request line length bound *)
}

let default_limits =
  { workers = 0;
    queue_depth = 32;
    deadline_ms = None;
    max_request_bytes = 8 * 1024 * 1024 }

(* Friendly flag validation, shared with the CLI (which turns [Error]
   into an exit-code-2 usage failure instead of a raw exception). *)
let check_positive_int ~(flag : string) (v : int) : (int, string) result =
  if v > 0 then Ok v
  else Error (Printf.sprintf "%s expects a positive integer, got %d" flag v)

(* Worker counts across serve/batch/tune share one convention: 0 means
   auto (the machine's recommended domain count), negatives are usage
   errors. *)
let check_jobs ~(flag : string) (v : int) : (int, string) result =
  if v >= 0 then Ok v
  else
    Error
      (Printf.sprintf "%s expects a positive integer (or 0 for auto), got %d"
         flag v)

let check_positive_float ~(flag : string) (v : float) :
    (float, string) result =
  if Float.is_finite v && v > 0.0 then Ok v
  else Error (Printf.sprintf "%s expects a positive number, got %g" flag v)

(* Sweep/tune axis lists: every value must be positive; repeated values
   are deduplicated (first occurrence wins) so a duplicated sweep point
   is compiled once, not twice. An empty list is a usage error — the grid
   would be empty. *)
let dedupe (xs : 'a list) : 'a list =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc)
       [] xs)

let check_positive_int_list ~(flag : string) (vs : int list) :
    (int list, string) result =
  if vs = [] then Error (Printf.sprintf "%s expects a non-empty list" flag)
  else
    match List.find_opt (fun v -> v <= 0) vs with
    | Some v ->
      Error
        (Printf.sprintf "%s expects positive integers, got %d" flag v)
    | None -> Ok (dedupe vs)

(* Stage budgets admit 0 (= the decomposition's natural depth), unlike
   the strictly positive sweep axes. *)
let check_nonneg_int_list ~(flag : string) (vs : int list) :
    (int list, string) result =
  if vs = [] then Error (Printf.sprintf "%s expects a non-empty list" flag)
  else
    match List.find_opt (fun v -> v < 0) vs with
    | Some v ->
      Error
        (Printf.sprintf "%s expects non-negative integers, got %d" flag v)
    | None -> Ok (dedupe vs)

let check_positive_float_list ~(flag : string) (vs : float list) :
    (float list, string) result =
  if vs = [] then Error (Printf.sprintf "%s expects a non-empty list" flag)
  else
    match List.find_opt (fun v -> not (Float.is_finite v && v > 0.0)) vs with
    | Some v ->
      Error (Printf.sprintf "%s expects positive numbers, got %g" flag v)
    | None -> Ok (dedupe vs)

let validate_limits (l : limits) : (limits, string) result =
  match check_jobs ~flag:"--jobs" l.workers with
  | Error _ as e -> e
  | Ok _ -> (
    match check_positive_int ~flag:"--queue-depth" l.queue_depth with
    | Error _ as e -> e
    | Ok _ -> (
      match
        check_positive_int ~flag:"--max-request-bytes" l.max_request_bytes
      with
      | Error _ as e -> e
      | Ok _ -> (
        match l.deadline_ms with
        | Some ms when not (Float.is_finite ms && ms > 0.0) ->
          Error
            (Printf.sprintf "--deadline-ms expects a positive number, got %g"
               ms)
        | Some _ | None -> Ok l)))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type kind =
  | Compile of Service.job * float option * bool
      (* job, per-request deadline override (ms), return the VHDL text? *)
  | Health of bool  (* drain first? *)
  | Shutdown

type request = { rq_id : Json.t; rq_kind : kind }

let known_option_keys =
  [ "target_ns"; "bus_elements"; "unroll_inner_max"; "unroll_all_max";
    "unroll_outer_factor"; "lut_convert_max_bits"; "disable_passes" ]

let options_of_json (j : Json.t) : (Driver.options, string) result =
  match j with
  | Json.Null -> Ok Driver.default_options
  | Json.Obj fields ->
    let rec apply (o : Driver.options) = function
      | [] -> Ok o
      | (key, v) :: rest -> (
        let bad what =
          Error (Printf.sprintf "option %s expects %s" key what)
        in
        let with_int f =
          match Json.to_int_opt v with
          | Some n when n >= 0 -> apply (f n) rest
          | Some _ | None -> bad "a non-negative integer"
        in
        match key with
        | "target_ns" -> (
          match Json.to_float_opt v with
          | Some t when Float.is_finite t && t > 0.0 ->
            apply { o with Driver.target_ns = t } rest
          | Some _ | None -> bad "a positive number")
        | "bus_elements" -> (
          match Json.to_int_opt v with
          | Some n when n >= 1 -> apply { o with Driver.bus_elements = n } rest
          | Some _ | None -> bad "a positive integer")
        | "unroll_inner_max" ->
          with_int (fun n -> { o with Driver.unroll_inner_max = n })
        | "unroll_all_max" ->
          with_int (fun n -> { o with Driver.unroll_all_max = n })
        | "unroll_outer_factor" -> (
          match Json.to_int_opt v with
          | Some n when n >= 1 ->
            apply { o with Driver.unroll_outer_factor = n } rest
          | Some _ | None -> bad "a positive integer")
        | "lut_convert_max_bits" ->
          with_int (fun n -> { o with Driver.lut_convert_max_bits = n })
        | "disable_passes" -> (
          match v with
          | Json.Arr items
            when List.for_all (fun i -> Json.to_string_opt i <> None) items
            ->
            let disabled_passes = List.filter_map Json.to_string_opt items in
            let o = { o with Driver.disabled_passes } in
            Result.bind (Pass.check_names o) (fun () -> apply o rest)
          | _ -> bad "a list of pass names")
        | _ ->
          Error
            (Printf.sprintf "unknown option %S (known: %s)" key
               (String.concat ", " known_option_keys)))
    in
    apply Driver.default_options fields
  | _ -> Error "\"options\" must be an object"

(* Parse one request object. Errors carry the request id (when one could
   be read) so even a rejected request gets a correlatable response. *)
let parse_request ~(label : string) (j : Json.t) :
    (request, Json.t * string) result =
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  match j with
  | Json.Obj _ -> (
    let typ =
      match Json.member "type" j with
      | None -> Ok "compile"
      | Some t -> (
        match Json.to_string_opt t with
        | Some s -> Ok s
        | None -> Error "\"type\" must be a string")
    in
    match typ with
    | Error msg -> Error (id, msg)
    | Ok "health" ->
      let drain =
        match Json.member "drain" j with
        | Some b -> Option.value (Json.to_bool_opt b) ~default:false
        | None -> false
      in
      Ok { rq_id = id; rq_kind = Health drain }
    | Ok "shutdown" -> Ok { rq_id = id; rq_kind = Shutdown }
    | Ok "compile" -> (
      match
        Option.bind (Json.member "source" j) Json.to_string_opt,
        Option.bind (Json.member "entry" j) Json.to_string_opt
      with
      | None, _ -> Error (id, "missing string field \"source\"")
      | _, None -> Error (id, "missing string field \"entry\"")
      | Some source, Some entry -> (
        match
          options_of_json
            (Option.value (Json.member "options" j) ~default:Json.Null)
        with
        | Error msg -> Error (id, msg)
        | Ok options -> (
          let deadline =
            match Json.member "deadline_ms" j with
            | None -> Ok None
            | Some v -> (
              match Json.to_float_opt v with
              | Some ms when Float.is_finite ms && ms > 0.0 -> Ok (Some ms)
              | Some _ | None ->
                Error "\"deadline_ms\" expects a positive number")
          in
          match deadline with
          | Error msg -> Error (id, msg)
          | Ok deadline ->
            let return_vhdl =
              match Json.member "return_vhdl" j with
              | Some b -> Option.value (Json.to_bool_opt b) ~default:false
              | None -> false
            in
            let label =
              match id with Json.Str s -> s | _ -> label
            in
            Ok
              { rq_id = id;
                rq_kind =
                  Compile
                    ( { Service.label; source; entry; options; luts = [] },
                      deadline, return_vhdl ) })))
    | Ok other -> Error (id, Printf.sprintf "unknown request type %S" other))
  | _ -> Error (id, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

(* One client connection: its own output channel (write-locked so
   concurrent workers never interleave bytes) and its own count of
   admitted-but-unanswered requests, so the connection can be closed the
   moment *its* work is done without waiting on anyone else's. *)
type conn = {
  cn_id : int;
  cn_oc : out_channel;
  cn_lock : Mutex.t;
  mutable cn_inflight : int;  (* queued or executing; guarded by t.lock *)
  cn_fd : Unix.file_descr option;
      (* socket connections carry their fd so a stopping server can nudge
         an idle reader out of its blocking read *)
}

type pending = {
  p_id : Json.t;
  p_conn : conn;  (* where the response goes *)
  p_job : Service.job;
  p_deadline : float option;  (* absolute, seconds since the epoch *)
  p_return_vhdl : bool;
  p_enqueued_s : float;
}

type t = {
  limits : limits;  (* workers resolved to >= 1 *)
  configured_workers : int;  (* as requested: 0 = auto *)
  base_config : Pass.config;
  cache : Cache.t option;
  trace : Trace.t option;
  metrics : Metrics.t;
  queue : pending Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;  (* queue non-empty, or draining *)
  idle : Condition.t;        (* some inflight count reached zero *)
  conns : (int, conn) Hashtbl.t;  (* live connections; guarded by lock *)
  mutable next_conn : int;
  mutable inflight : int;
  mutable draining : bool;
  mutable n_requests : int;  (* admission counter, for request labels *)
  stop_flag : bool Atomic.t; (* SIGTERM / shutdown request *)
}

let create ?cache ?config ?trace ?(limits = default_limits) () : t =
  let base =
    match config with Some c -> c | None -> Pass.default_config ()
  in
  (* The driver_pass fault point rides the instrument hook: it fires at
     the same boundary the cancellation hook polls, covering every
     executed pass without the core layer depending on this library. *)
  let base_config =
    { base with
      Pass.instrument =
        Some
          (fun ps ->
            Option.iter (fun f -> f ps) base.Pass.instrument;
            Faults.trip "driver_pass") }
  in
  let workers = Pool.resolve limits.workers in
  { limits = { limits with workers };
    configured_workers = limits.workers;
    base_config;
    cache;
    trace;
    (* one response-count slot per worker tid, plus slot 0 for the
       reader threads' own answers (health, rejects, sheds) *)
    metrics = Metrics.create ~worker_slots:(workers + 1) ();
    queue = Queue.create ();
    lock = Mutex.create ();
    work_ready = Condition.create ();
    idle = Condition.create ();
    conns = Hashtbl.create 8;
    next_conn = 0;
    inflight = 0;
    draining = false;
    n_requests = 0;
    stop_flag = Atomic.make false }

let request_stop (srv : t) : unit = Atomic.set srv.stop_flag true
let stop_requested (srv : t) : bool = Atomic.get srv.stop_flag

let locked (srv : t) f =
  Mutex.lock srv.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.lock) f

(* One response line per request, under the connection's output lock so
   concurrent workers never interleave bytes. A write failure (the
   client hung up before its answer) is counted and swallowed — a dead
   connection must never take a worker down. *)
let respond (srv : t) (conn : conn) (fields : (string * Json.t) list) : unit =
  let line = Json.to_string (Json.Obj fields) in
  Mutex.lock conn.cn_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.cn_lock)
    (fun () ->
      match
        output_string conn.cn_oc line;
        output_char conn.cn_oc '\n';
        flush conn.cn_oc
      with
      | () -> ()
      | exception Sys_error _ -> Metrics.incr_write_error srv.metrics)

(* Register a new connection (stdin counts as one too). *)
let new_conn ?fd (srv : t) (oc : out_channel) : conn =
  Metrics.incr_conn srv.metrics;
  locked srv (fun () ->
      srv.next_conn <- srv.next_conn + 1;
      let c =
        { cn_id = srv.next_conn;
          cn_oc = oc;
          cn_lock = Mutex.create ();
          cn_inflight = 0;
          cn_fd = fd }
      in
      Hashtbl.replace srv.conns c.cn_id c;
      c)

let forget_conn (srv : t) (conn : conn) : unit =
  locked srv (fun () -> Hashtbl.remove srv.conns conn.cn_id)

(* EOF on one connection must not stall the others: its closer waits
   only for the requests *this* connection admitted. *)
let wait_conn_idle (srv : t) (conn : conn) : unit =
  locked srv (fun () ->
      while conn.cn_inflight > 0 do
        Condition.wait srv.idle srv.lock
      done)

let queue_depth_sample (srv : t) : unit =
  Option.iter
    (fun tr ->
      let d = locked srv (fun () -> Queue.length srv.queue) in
      Trace.add_counter tr ~name:"queue_depth" ~value:(float_of_int d) ())
    srv.trace

(* ------------------------------------------------------------------ *)
(* Health                                                              *)
(* ------------------------------------------------------------------ *)

let health_json (srv : t) : Json.t =
  let s = Metrics.snapshot srv.metrics in
  let depth = locked srv (fun () -> Queue.length srv.queue) in
  let cache_json =
    match srv.cache with
    | None -> Json.Null
    | Some c ->
      let st = Cache.stats c in
      let looked_up = st.Cache.hits + st.Cache.disk_hits + st.Cache.misses in
      Json.Obj
        [ "hits", Json.int st.Cache.hits;
          "disk_hits", Json.int st.Cache.disk_hits;
          "misses", Json.int st.Cache.misses;
          "stores", Json.int st.Cache.stores;
          "retries", Json.int st.Cache.retries;
          "io_errors", Json.int st.Cache.io_errors;
          "tmp_swept", Json.int st.Cache.tmp_swept;
          "contended", Json.int st.Cache.contended;
          "flights", Json.int st.Cache.flights;
          "coalesced", Json.int st.Cache.coalesced;
          ( "hit_rate",
            if looked_up = 0 then Json.Null
            else
              Json.Num
                (float_of_int (st.Cache.hits + st.Cache.disk_hits)
                /. float_of_int looked_up) ) ]
  in
  let faults_json =
    match Faults.counts () with
    | [] -> Json.Null
    | cs ->
      Json.Obj
        (List.map
           (fun (point, calls, fired) ->
             ( point,
               Json.Obj
                 [ "calls", Json.int calls; "fired", Json.int fired ] ))
           cs)
  in
  Json.Obj
    [ "uptime_s", Json.Num s.Metrics.s_uptime_s;
      ( "workers",
        Json.Obj
          [ "configured", Json.int srv.configured_workers;
            "effective", Json.int srv.limits.workers;
            ( "requests",
              (* responses completed per worker tid; slot 0 is the
                 admission thread (health, rejects, sheds) *)
              Json.Arr
                (Array.to_list
                   (Array.map Json.int s.Metrics.s_by_worker)) ) ] );
      "pid", Json.int (Unix.getpid ());
      ( "connections",
        Json.Obj
          [ "accepted", Json.int s.Metrics.s_conns;
            ( "active",
              Json.int (locked srv (fun () -> Hashtbl.length srv.conns)) );
            "refused", Json.int s.Metrics.s_refused;
            "read_errors", Json.int s.Metrics.s_read_errors;
            "write_errors", Json.int s.Metrics.s_write_errors ] );
      ( "queue",
        Json.Obj
          [ "depth", Json.int depth;
            "capacity", Json.int srv.limits.queue_depth ] );
      ( "requests",
        Json.Obj
          [ "received", Json.int s.Metrics.s_received;
            "ok", Json.int s.Metrics.s_ok;
            "failed", Json.int s.Metrics.s_failed;
            "shed", Json.int s.Metrics.s_shed;
            "deadline_exceeded", Json.int s.Metrics.s_deadline;
            "bad_request", Json.int s.Metrics.s_bad_request;
            "health", Json.int s.Metrics.s_health ] );
      ( "latency_ms",
        Json.Obj
          [ "count", Json.int s.Metrics.s_latency_count;
            "p50", Json.Num s.Metrics.s_p50_ms;
            "p95", Json.Num s.Metrics.s_p95_ms;
            "max", Json.Num s.Metrics.s_max_ms ] );
      "cache", cache_json;
      "faults", faults_json ]

let wait_idle (srv : t) : unit =
  locked srv (fun () ->
      while not (Queue.is_empty srv.queue && srv.inflight = 0) do
        Condition.wait srv.idle srv.lock
      done)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let handle (srv : t) (tid : int) (p : pending) : unit =
  let t0 = now () in
  let finish fields =
    let ms = (now () -. p.p_enqueued_s) *. 1e3 in
    Metrics.observe_ms srv.metrics ms;
    Metrics.incr_worker srv.metrics ~tid;
    respond srv p.p_conn
      (("id", p.p_id) :: fields @ [ "elapsed_ms", Json.Num ms ]);
    Option.iter
      (fun tr ->
        let status =
          match List.assoc_opt "status" fields with
          | Some (Json.Str s) -> s
          | _ -> "?"
        in
        Trace.add_span tr ~cat:"request" ~tid ~name:p.p_job.Service.label
          ~start_s:t0 ~dur_s:(now () -. t0)
          ~args:[ "status", Trace.Str status ] ())
      srv.trace
  in
  let past_deadline () =
    match p.p_deadline with
    | Some d when now () > d ->
      Some
        (Printf.sprintf "deadline exceeded after %.1f ms"
           ((now () -. p.p_enqueued_s) *. 1e3))
    | Some _ | None -> None
  in
  match
    Faults.trip "scheduler_claim";
    (* a request that already waited out its deadline in the queue is
       answered without compiling at all *)
    (match past_deadline () with
    | Some reason -> raise (Pass.Cancelled reason)
    | None -> ());
    let config =
      match p.p_deadline with
      | None -> srv.base_config
      | Some _ ->
        { srv.base_config with Pass.cancel = Some past_deadline }
    in
    Service.compile_cached ?cache:srv.cache ~config ?trace:srv.trace ~tid
      p.p_job
  with
  | s ->
    Metrics.incr_ok srv.metrics;
    let vhdl_bytes =
      List.fold_left
        (fun n (_, text) -> n + String.length text)
        0 s.Service.r_vhdl
    in
    let area = s.Service.r_area in
    finish
      ([ "status", Json.Str "ok";
         "entry", Json.Str s.Service.r_entry;
         "origin", Json.Str (Service.origin_name s.Service.r_origin);
         "slices", Json.int area.Area.slices;
         "clock_mhz", Json.Num area.Area.clock_mhz;
         "latency", Json.int area.Area.latency;
         "latch_bits", Json.int area.Area.latch_bits;
         "vhdl_bytes", Json.int vhdl_bytes ]
      @
      if p.p_return_vhdl then
        [ ( "vhdl",
            Json.Obj
              (List.map (fun (f, text) -> f, Json.Str text) s.Service.r_vhdl)
          ) ]
      else [])
  | exception Pass.Cancelled reason ->
    Metrics.incr_deadline srv.metrics;
    finish
      [ "status", Json.Str "deadline_exceeded"; "message", Json.Str reason ]
  | exception e ->
    Metrics.incr_failed srv.metrics;
    let kind, msg =
      match e with
      | Faults.Injected point -> "injected_fault", "injected fault at " ^ point
      | _ -> (
        match Pool.describe_error e with
        | Some m -> "compile", m
        | None -> "internal", Printexc.to_string e)
    in
    finish
      [ "status", Json.Str "error";
        "kind", Json.Str kind;
        "message", Json.Str msg ]

let rec worker (srv : t) (tid : int) : unit =
  let next =
    locked srv (fun () ->
        let rec await () =
          if not (Queue.is_empty srv.queue) then begin
            let p = Queue.pop srv.queue in
            srv.inflight <- srv.inflight + 1;
            Some p
          end
          else if srv.draining then None
          else begin
            Condition.wait srv.work_ready srv.lock;
            await ()
          end
        in
        await ())
  in
  match next with
  | None -> ()
  | Some p ->
    queue_depth_sample srv;
    handle srv tid p;
    locked srv (fun () ->
        srv.inflight <- srv.inflight - 1;
        p.p_conn.cn_inflight <- p.p_conn.cn_inflight - 1;
        (* wake both the global drain (wait_idle) and any per-connection
           closer (wait_conn_idle) — either count may just have hit 0 *)
        Condition.broadcast srv.idle);
    worker srv tid

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let bad_request (srv : t) (conn : conn) (id : Json.t) (msg : string) : unit =
  Metrics.incr_bad_request srv.metrics;
  Metrics.incr_worker srv.metrics ~tid:0;
  respond srv conn
    [ "id", id;
      "status", Json.Str "error";
      "kind", Json.Str "bad_request";
      "message", Json.Str msg ]

(* Handle one request line from one connection; [false] means a shutdown
   request asked the reader to stop. *)
let admit (srv : t) (conn : conn) (line : string) : bool =
  Metrics.incr_received srv.metrics;
  let n = locked srv (fun () -> srv.n_requests <- srv.n_requests + 1; srv.n_requests) in
  if String.length line > srv.limits.max_request_bytes then begin
    bad_request srv conn Json.Null
      (Printf.sprintf "request of %d bytes exceeds the %d-byte limit"
         (String.length line) srv.limits.max_request_bytes);
    true
  end
  else
    match Json.parse line with
    | Error msg ->
      bad_request srv conn Json.Null ("malformed JSON: " ^ msg);
      true
    | Ok j -> (
      match parse_request ~label:(Printf.sprintf "req-%d" n) j with
      | Error (id, msg) ->
        bad_request srv conn id msg;
        true
      | Ok { rq_id; rq_kind = Health drain } ->
        if drain then wait_idle srv;
        Metrics.incr_health srv.metrics;
        Metrics.incr_worker srv.metrics ~tid:0;
        respond srv conn
          [ "id", rq_id;
            "status", Json.Str "ok";
            "health", health_json srv ];
        true
      | Ok { rq_id; rq_kind = Shutdown } ->
        Metrics.incr_health srv.metrics;
        Metrics.incr_worker srv.metrics ~tid:0;
        respond srv conn
          [ "id", rq_id;
            "status", Json.Str "ok";
            "shutting_down", Json.Bool true ];
        request_stop srv;
        false
      | Ok { rq_id; rq_kind = Compile (job, deadline_ms, return_vhdl) } ->
        let deadline_ms =
          match deadline_ms with
          | Some _ as d -> d
          | None -> srv.limits.deadline_ms
        in
        let p =
          { p_id = rq_id;
            p_conn = conn;
            p_job = job;
            p_deadline =
              Option.map (fun ms -> now () +. (ms /. 1e3)) deadline_ms;
            p_return_vhdl = return_vhdl;
            p_enqueued_s = now () }
        in
        let accepted =
          locked srv (fun () ->
              if Queue.length srv.queue >= srv.limits.queue_depth then false
              else begin
                Queue.push p srv.queue;
                conn.cn_inflight <- conn.cn_inflight + 1;
                Condition.signal srv.work_ready;
                true
              end)
        in
        queue_depth_sample srv;
        if not accepted then begin
          Metrics.incr_shed srv.metrics;
          Metrics.incr_worker srv.metrics ~tid:0;
          respond srv conn
            [ "id", rq_id;
              "status", Json.Str "overloaded";
              "message",
              Json.Str
                (Printf.sprintf "admission queue full (depth %d)"
                   srv.limits.queue_depth) ]
        end;
        true)

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

(* One connection's read loop: admit lines until EOF, a shutdown
   request, or {!request_stop}. A read that fails for any other reason
   (the peer vanished, the fd was yanked) is COUNTED and logged — not
   silently swallowed — unless it is the stop nudge we sent ourselves. *)
let read_conn (srv : t) (conn : conn) (ic : in_channel) : unit =
  let rec read_loop () =
    if stop_requested srv then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error msg ->
        if not (stop_requested srv) then begin
          Metrics.incr_read_error srv.metrics;
          Printf.eprintf "roccc serve: read error on connection %d: %s\n%!"
            conn.cn_id msg
        end
      | line ->
        if String.equal (String.trim line) "" then read_loop ()
        else if admit srv conn line then read_loop ()
  in
  read_loop ()

(** Serve one request stream (e.g. stdin/stdout): spawn the worker pool,
    admit requests until EOF / shutdown / {!request_stop}, then drain —
    queued requests finish, workers join — and return the final metrics
    snapshot. The server value may serve several streams in sequence;
    metrics and cache persist across them. *)
let serve (srv : t) (ic : in_channel) (oc : out_channel) : Metrics.snapshot =
  locked srv (fun () -> srv.draining <- false);
  let pool = Pool.spawn ~workers:srv.limits.workers (fun ~tid -> worker srv tid) in
  let conn = new_conn srv oc in
  read_conn srv conn ic;
  locked srv (fun () ->
      srv.draining <- true;
      Condition.broadcast srv.work_ready);
  Pool.join pool;
  forget_conn srv conn;
  Metrics.snapshot srv.metrics

(* ------------------------------------------------------------------ *)
(* The concurrent socket accept loop                                   *)
(* ------------------------------------------------------------------ *)

(* Kick every idle connection reader out of its blocking [input_line] by
   half-closing the socket's read side. Runs under [srv.lock]: a fd is
   only closed after {!forget_conn} (which needs the same lock), so a
   registered fd can never be concurrently closed under our feet. *)
let nudge_all (srv : t) : unit =
  locked srv (fun () ->
      Hashtbl.iter
        (fun _ c ->
          Option.iter
            (fun fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
              with Unix.Unix_error _ -> ())
            c.cn_fd)
        srv.conns)

(* One socket connection, run on its own reader domain: register, read
   until EOF/shutdown, wait for THIS connection's admitted requests to be
   answered, then unregister and close. Closing never stalls on other
   connections' work. *)
let serve_conn (srv : t) (fd : Unix.file_descr) : unit =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let conn = new_conn ~fd srv oc in
  Option.iter
    (fun tr ->
      Trace.add_instant tr ~name:"conn_open"
        ~args:[ "conn", Trace.Int conn.cn_id ] ())
    srv.trace;
  read_conn srv conn ic;
  wait_conn_idle srv conn;
  forget_conn srv conn;
  Option.iter
    (fun tr ->
      Trace.add_instant tr ~name:"conn_close"
        ~args:[ "conn", Trace.Int conn.cn_id ] ())
    srv.trace;
  (try flush oc with Sys_error _ -> Metrics.incr_write_error srv.metrics);
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* The runtime caps live domains (128 in OCaml 5.1), so past roughly
   that many simultaneous connections [Domain.spawn] fails. The
   connection that found no reader is answered with one "overloaded"
   line and closed; the server keeps serving everyone else. *)
let refuse (srv : t) (fd : Unix.file_descr) (reason : string) : unit =
  Metrics.incr_refused srv.metrics;
  let line =
    Json.to_string
      (Json.Obj
         [ "id", Json.Null;
           "status", Json.Str "overloaded";
           "message",
           Json.Str ("connection refused: no reader domain (" ^ reason ^ ")") ])
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> Metrics.incr_write_error srv.metrics);
  try Unix.close fd with Unix.Unix_error _ -> ()

(** Serve a listening Unix-domain (or TCP) socket concurrently: ONE
    shared worker pool drains ONE shared admission queue fed by a reader
    domain per accepted connection. EOF on one connection closes only
    that connection; a shutdown request or {!request_stop} stops
    accepting, nudges idle readers, and drains every queued request from
    every connection before the workers join. Returns the final metrics
    snapshot. *)
let serve_socket ?(poll_interval_s = 0.05) (srv : t)
    (sock : Unix.file_descr) : Metrics.snapshot =
  locked srv (fun () -> srv.draining <- false);
  let pool = Pool.spawn ~workers:srv.limits.workers (fun ~tid -> worker srv tid) in
  let readers = Pool.dynamic () in
  let rec accept_loop () =
    if stop_requested srv then ()
    else
      (* select with a short timeout so a stop request (signal or
         shutdown verb on any connection) is noticed promptly even when
         no client is connecting *)
      match Unix.select [ sock ] [] [] poll_interval_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
        (match Unix.accept sock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> (
          match Pool.add readers (fun () -> serve_conn srv fd) with
          | () -> ()
          | exception Failure msg -> refuse srv fd msg));
        accept_loop ()
  in
  accept_loop ();
  (* stop order matters: wake blocked readers first (their connections'
     queued work is still honoured), join them, THEN drain the workers *)
  nudge_all srv;
  Pool.join_all readers;
  locked srv (fun () ->
      srv.draining <- true;
      Condition.broadcast srv.work_ready);
  Pool.join pool;
  Metrics.snapshot srv.metrics
