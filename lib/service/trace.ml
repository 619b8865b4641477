(* Structured tracing for the batch service.

   Workers record one span per executed compiler pass (via the driver's
   instrument hook) and one per job; the collector renders them as Chrome
   trace_event JSON (load the file at chrome://tracing or ui.perfetto.dev)
   with a "meta" object carrying batch-level summary data — wall time,
   cache statistics, per-job outcomes. Everything is hand-rolled JSON: the
   repo deliberately has no json dependency. *)

type arg = Int of int | Float of float | Str of string

type span = {
  sp_name : string;
  sp_cat : string;            (* "pass" | "job" | ... *)
  sp_tid : int;               (* worker slot (0 = the calling domain) *)
  sp_start_s : float;         (* absolute wall-clock, seconds *)
  sp_dur_s : float;
  sp_args : (string * arg) list;
}

(* Counter ("C") events: a named value sampled over time — the serve
   loop's queue depth. Kept separate from spans so span consumers see
   only spans. *)
type counter = {
  c_name : string;
  c_tid : int;
  c_ts_s : float;   (* absolute wall-clock, seconds *)
  c_value : float;
}

(* Instant ("i") events: a point in time worth a tick mark in the viewer
   — a connection opening or closing. *)
type instant = {
  i_name : string;
  i_tid : int;
  i_ts_s : float;  (* absolute wall-clock, seconds *)
  i_args : (string * arg) list;
}

type t = {
  lock : Mutex.t;
  mutable spans : span list;  (* newest first *)
  mutable counters : counter list;  (* newest first *)
  mutable instants : instant list;  (* newest first *)
}

let create () =
  { lock = Mutex.create (); spans = []; counters = []; instants = [] }

let add_span t ?(cat = "pass") ?(args = []) ~tid ~name ~start_s ~dur_s () =
  let sp =
    { sp_name = name; sp_cat = cat; sp_tid = tid; sp_start_s = start_s;
      sp_dur_s = dur_s; sp_args = args }
  in
  Mutex.lock t.lock;
  t.spans <- sp :: t.spans;
  Mutex.unlock t.lock

let add_counter t ?(tid = 0) ~name ~value () =
  let c =
    { c_name = name; c_tid = tid; c_ts_s = Unix.gettimeofday ();
      c_value = value }
  in
  Mutex.lock t.lock;
  t.counters <- c :: t.counters;
  Mutex.unlock t.lock

let add_instant t ?(tid = 0) ?(args = []) ~name () =
  let i =
    { i_name = name; i_tid = tid; i_ts_s = Unix.gettimeofday ();
      i_args = args }
  in
  Mutex.lock t.lock;
  t.instants <- i :: t.instants;
  Mutex.unlock t.lock

let spans t =
  Mutex.lock t.lock;
  let s = t.spans in
  Mutex.unlock t.lock;
  List.sort (fun a b -> Float.compare a.sp_start_s b.sp_start_s) s

let counters t =
  Mutex.lock t.lock;
  let c = t.counters in
  Mutex.unlock t.lock;
  List.sort (fun a b -> Float.compare a.c_ts_s b.c_ts_s) c

let instants t =
  Mutex.lock t.lock;
  let i = t.instants in
  Mutex.unlock t.lock;
  List.sort (fun a b -> Float.compare a.i_ts_s b.i_ts_s) i

(* ---- JSON rendering ---- *)

let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | Str s -> Printf.sprintf "\"%s\"" (escape s)

let args_json (args : (string * arg) list) : string =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (arg_json v)) args)
  ^ "}"

(* Complete ("X") events, microsecond timestamps relative to the earliest
   span so the numbers stay small and the viewer starts at zero. *)
let span_json ~t0 (sp : span) : string =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":%s}"
    (escape sp.sp_name) (escape sp.sp_cat) sp.sp_tid
    ((sp.sp_start_s -. t0) *. 1e6)
    (sp.sp_dur_s *. 1e6)
    (args_json sp.sp_args)

let counter_json ~t0 (c : counter) : string =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"args\":%s}"
    (escape c.c_name) c.c_tid
    ((c.c_ts_s -. t0) *. 1e6)
    (args_json [ "value", Float c.c_value ])

let instant_json ~t0 (i : instant) : string =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"args\":%s}"
    (escape i.i_name) i.i_tid
    ((i.i_ts_s -. t0) *. 1e6)
    (args_json i.i_args)

let to_chrome_json ?(meta = []) (t : t) : string =
  let ss = spans t in
  let cs = counters t in
  let is = instants t in
  let t0 =
    let min3 a b = match a, b with
      | Some a, Some b -> Some (Float.min a b)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None
    in
    let first f = function [] -> None | x :: _ -> Some (f x) in
    Option.value
      (min3
         (min3 (first (fun sp -> sp.sp_start_s) ss)
            (first (fun c -> c.c_ts_s) cs))
         (first (fun i -> i.i_ts_s) is))
      ~default:0.0
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (span_json ~t0 sp))
    ss;
  List.iteri
    (fun i c ->
      if i > 0 || ss <> [] then Buffer.add_string buf ",\n";
      Buffer.add_string buf (counter_json ~t0 c))
    cs;
  List.iteri
    (fun i ev ->
      if i > 0 || ss <> [] || cs <> [] then Buffer.add_string buf ",\n";
      Buffer.add_string buf (instant_json ~t0 ev))
    is;
  Buffer.add_string buf "\n],\n\"displayTimeUnit\":\"ms\",\n\"meta\":";
  Buffer.add_string buf (args_json meta);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
