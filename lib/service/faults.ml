(* Deterministic fault injection for resilience testing.

   A plan names injection points with firing rates ("cache_read:0.5,
   driver_pass:1"); each point carries a rate accumulator that gains
   [rate] per call and fires — raising {!Injected} at the call site —
   each time it crosses 1. A rate of 1.0 fires on every call, 0.5 on
   every second call, 0.25 on every fourth; there is no randomness, so a
   soak run injects exactly the same fault sequence every time.

   A plan is installed process-globally ([install], or [from_env] reading
   ROCCC_FAULT); production code marks its fault points with {!trip},
   which is a no-op when nothing is installed — the cache's disk I/O, the
   scheduler's job claim and the driver's pass boundary all carry one.
   Per-point call/fire counters make "every fault point exercised"
   checkable from tests and the serve health snapshot. *)

exception Injected of string

type entry = {
  rate : float;
  mutable acc : float;
  mutable calls : int;
  mutable fired : int;
}

type t = {
  lock : Mutex.t;
  entries : (string * entry) list;
}

(* The named injection points, in the order they appear in the pipeline.
   [parse] rejects anything else so a typo in ROCCC_FAULT is an error,
   not a silently dead plan. *)
let known_points =
  [ "scheduler_claim"; "driver_pass"; "cache_read"; "cache_write" ]

let parse (spec : string) : (t, string) result =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
  in
  if items = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok { lock = Mutex.create (); entries = List.rev acc }
      | item :: rest -> (
        let point, rate_src =
          match String.index_opt item ':' with
          | None -> item, None
          | Some i ->
            ( String.sub item 0 i,
              Some (String.sub item (i + 1) (String.length item - i - 1)) )
        in
        if not (List.mem point known_points) then
          Error
            (Printf.sprintf "unknown fault point %S (known: %s)" point
               (String.concat ", " known_points))
        else
          let rate =
            match rate_src with
            | None -> Ok 1.0
            | Some r -> (
              match float_of_string_opt r with
              | Some v when v > 0.0 && v <= 1.0 -> Ok v
              | Some _ ->
                Error
                  (Printf.sprintf "fault point %s: rate %s is outside (0, 1]"
                     point r)
              | None ->
                Error (Printf.sprintf "fault point %s: bad rate %S" point r))
          in
          match rate with
          | Error _ as e -> e
          | Ok rate ->
            if List.mem_assoc point acc then
              Error (Printf.sprintf "fault point %s given twice" point)
            else
              go
                ((point, { rate; acc = 0.0; calls = 0; fired = 0 }) :: acc)
                rest)
    in
    go [] items

(* The installed plan. An [Atomic] so worker domains read a consistent
   pointer; the per-entry counters are guarded by the plan's own mutex. *)
let current : t option Atomic.t = Atomic.make None

let install (t : t) : unit = Atomic.set current (Some t)
let clear () : unit = Atomic.set current None

let env_var = "ROCCC_FAULT"

let from_env () : (t option, string) result =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok None
  | Some spec -> Result.map Option.some (parse spec)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let trip (point : string) : unit =
  match Atomic.get current with
  | None -> ()
  | Some t -> (
    match List.assoc_opt point t.entries with
    | None -> ()
    | Some e ->
      let fire =
        locked t (fun () ->
            e.calls <- e.calls + 1;
            e.acc <- e.acc +. e.rate;
            (* the epsilon keeps rates like 0.2 firing exactly every 5th
               call despite accumulated float error *)
            if e.acc >= 1.0 -. 1e-9 then begin
              e.acc <- e.acc -. 1.0;
              e.fired <- e.fired + 1;
              true
            end
            else false)
      in
      if fire then raise (Injected point))

let counts () : (string * int * int) list =
  match Atomic.get current with
  | None -> []
  | Some t ->
    locked t (fun () ->
        List.map (fun (p, e) -> p, e.calls, e.fired) t.entries)

let describe (e : exn) : string option =
  match e with
  | Injected point -> Some (Printf.sprintf "injected fault at %s" point)
  | _ -> None
