(** Bounded FIFO channel between two datapath engines (process-network
    mode). The channel is the hardware FIFO the VHDL top level
    instantiates between a producer's output port and a consumer's
    smart buffer: a fixed [depth], single push/pop per element, and
    occupancy counters the simulator uses to model backpressure
    (full -> producer stalls, empty -> consumer stalls).

    Instrumented with a high-water mark and stall counters so the
    sizing rule in [Roccc_net] can be checked against what actually
    happened during co-simulation. *)

module Words = Roccc_util.Words
module Diag = Roccc_util.Diag

type t = {
  name : string;
  depth : int;                       (** capacity in elements *)
  ring : Words.t;                    (** [depth] slots *)
  mutable head : int;                (** slot of the oldest element *)
  mutable length : int;              (** elements held *)
  mutable pushed : int;              (** total elements ever pushed *)
  mutable popped : int;              (** total elements ever popped *)
  mutable high_water : int;          (** max occupancy observed *)
  mutable full_stalls : int;         (** producer cycles blocked on space *)
  mutable empty_stalls : int;        (** consumer cycles blocked on data *)
}

let create ~(name : string) ~(depth : int) : t =
  if depth < 1 then
    Diag.failf "fifo" "fifo %s: depth must be >= 1 (got %d)" name depth;
  { name;
    depth;
    ring = Words.create depth;
    head = 0;
    length = 0;
    pushed = 0;
    popped = 0;
    high_water = 0;
    full_stalls = 0;
    empty_stalls = 0 }

let length (f : t) : int = f.length
let space (f : t) : int = f.depth - f.length
let is_empty (f : t) : bool = f.length = 0
let is_full (f : t) : bool = f.length >= f.depth

(** Push word [i] of [src]; the engine must check [space] first — pushing
    into a full channel is a simulator bug, not backpressure. *)
let push (f : t) (src : Words.t) (i : int) : unit =
  if is_full f then
    Diag.failf "fifo"
      "fifo %s: push into a full channel (depth %d)" f.name f.depth;
  f.ring.{(f.head + f.length) mod f.depth} <- src.{i};
  f.length <- f.length + 1;
  f.pushed <- f.pushed + 1;
  if f.length > f.high_water then f.high_water <- f.length

(** Pop the oldest element into word [i] of [dst]; false when empty. *)
let pop (f : t) (dst : Words.t) (i : int) : bool =
  if f.length = 0 then false
  else begin
    dst.{i} <- f.ring.{f.head};
    f.head <- (f.head + 1) mod f.depth;
    f.length <- f.length - 1;
    f.popped <- f.popped + 1;
    true
  end

(** Record a cycle in which the producer wanted to launch but the
    channel had no credit for the results. *)
let note_full_stall (f : t) : unit = f.full_stalls <- f.full_stalls + 1

(** Record a cycle in which the consumer wanted data but the channel
    was empty. *)
let note_empty_stall (f : t) : unit = f.empty_stalls <- f.empty_stalls + 1
