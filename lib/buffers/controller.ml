(** The higher-level controller (paper §4.1): a finite state machine that
    sequences the address generators, the smart buffer and the data path.
    Because the compiler knows the access pattern at compile time, no
    handshaking cycles are spent between components (§3, vs. SA-C). *)

type state =
  | Idle     (** waiting for start *)
  | Filling  (** priming the smart buffer before the first window *)
  | Steady   (** one window per cycle enters the data path *)
  | Draining (** input exhausted; in-flight iterations completing *)
  | Done

let state_name = function
  | Idle -> "idle"
  | Filling -> "filling"
  | Steady -> "steady"
  | Draining -> "draining"
  | Done -> "done"

type t = {
  mutable state : state;
  mutable cycle : int;
  mutable launched : int;   (** iterations issued to the data path *)
  mutable retired : int;    (** iterations whose results were written *)
  total_iterations : int;
  pipeline_latency : int;
}

let create ~total_iterations ~pipeline_latency : t =
  { state = Idle;
    cycle = 0;
    launched = 0;
    retired = 0;
    total_iterations;
    pipeline_latency }

let start (c : t) = if c.state = Idle then c.state <- Filling

(* Transition rules evaluated once per clock by the simulator. Progress is
   tracked by launch/retire counters: the compile-time schedule means the
   controller needs no handshake with the buffer, only counts. *)
let step (c : t) : unit =
  c.cycle <- c.cycle + 1;
  (match c.state with
  | Idle -> ()
  | Filling ->
    if c.total_iterations = 0 then c.state <- Done
    else if c.launched > 0 then c.state <- Steady
  | Steady -> if c.launched >= c.total_iterations then c.state <- Draining
  | Draining -> if c.retired >= c.total_iterations then c.state <- Done
  | Done -> ());
  if c.state = Steady && c.launched >= c.total_iterations then
    c.state <- Draining;
  if c.state = Draining && c.retired >= c.total_iterations then c.state <- Done

let note_launch (c : t) = c.launched <- c.launched + 1
let note_retire (c : t) = c.retired <- c.retired + 1

let is_done (c : t) = c.state = Done
