(** The smart buffer (paper §4.1, reference [18]): generated from the memory
    access pattern — bus size, window size, data size and sliding-window
    stride — it "reuses live input data, cleans unused data and exports the
    present valid input data set to the data path", so each array element is
    fetched from memory exactly once.

    1-D windows keep [extent + bus - 1] live registers; 2-D windows keep
    [(rows-1) * row_length + cols] (line buffers), matching the hardware
    structure the generator sizes. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type config = {
  element_bits : int;
  element_signed : bool;
  bus_elements : int;       (** elements delivered per memory access *)
  array_dims : int list;    (** full array dimensions, outermost first *)
  window_offsets : int list list;  (** offsets consumed per iteration *)
  stride : int list;        (** window advance per iteration, per dim *)
  iterations : int list;    (** iteration count per loop dim *)
  lower : int list;         (** first window origin per dim *)
}

type stats = {
  mutable fetched_elements : int;  (** elements read from memory *)
  mutable exported_windows : int;  (** windows handed to the data path *)
}

type t = {
  cfg : config;
  data : int64 array;             (** arrival store, flat row-major *)
  mutable arrived : int;          (** elements received so far (in order) *)
  mutable window_index : int;     (** next window number to export *)
  mutable reach_window : int;     (** window whose reach is cached, or -1 *)
  mutable reach : int;            (** highest flat index it touches *)
  stats : stats;
}

let total_elements cfg = List.fold_left ( * ) 1 cfg.array_dims

let total_windows cfg = List.fold_left ( * ) 1 cfg.iterations

(* Extent per dimension: max offset + 1 relative to the window origin
   (offsets are relative to the loop indices). *)
let extents cfg : int list =
  match cfg.window_offsets with
  | [] -> List.map (fun _ -> 1) cfg.array_dims
  | first :: _ ->
    List.mapi
      (fun d _ ->
        let vals = List.map (fun v -> List.nth v d) cfg.window_offsets in
        let lo = List.fold_left min (List.hd vals) vals in
        let hi = List.fold_left max (List.hd vals) vals in
        hi - lo + 1)
      first

(** Register capacity of the generated buffer, in elements. *)
let capacity_elements (cfg : config) : int =
  match extents cfg, cfg.array_dims with
  | [ e ], [ _ ] -> e + cfg.bus_elements - 1
  | [ er; ec ], [ _; cols ] -> ((er - 1) * cols) + ec + cfg.bus_elements - 1
  | _ -> errf "smart buffer: only 1-D and 2-D windows are supported"

let capacity_bits (cfg : config) : int =
  capacity_elements cfg * cfg.element_bits

let create (cfg : config) : t =
  if cfg.bus_elements < 1 then errf "smart buffer: bus must carry >= 1 element";
  (match cfg.array_dims with
  | [ _ ] | [ _; _ ] -> ()
  | _ -> errf "smart buffer: 1-D or 2-D arrays only");
  { cfg;
    data = Array.make (total_elements cfg) 0L;
    arrived = 0;
    window_index = 0;
    reach_window = -1;
    reach = 0;
    stats = { fetched_elements = 0; exported_windows = 0 } }

(** Elements still expected from memory. *)
let remaining_fetch (b : t) : int = total_elements b.cfg - b.arrived

(** Deliver the next memory word ([<= bus_elements] elements, in row-major
    order). The address generator guarantees in-order delivery. *)
let push (b : t) (elements : int64 array) : unit =
  if Array.length elements > b.cfg.bus_elements then
    errf "smart buffer: %d elements exceed the bus width %d"
      (Array.length elements) b.cfg.bus_elements;
  Array.iter
    (fun v ->
      if b.arrived >= total_elements b.cfg then
        errf "smart buffer: more data than the array holds";
      b.data.(b.arrived) <-
        Roccc_util.Bits.truncate ~signed:b.cfg.element_signed
          b.cfg.element_bits v;
      b.arrived <- b.arrived + 1;
      b.stats.fetched_elements <- b.stats.fetched_elements + 1)
    elements

(* Window origin (per-dim indices) of window number w. *)
let window_origin (b : t) (w : int) : int list =
  let rec split w dims =
    match dims with
    | [] -> []
    | [ _ ] -> [ w ]
    | d :: rest ->
      let inner = List.fold_left ( * ) 1 rest in
      (w / inner) :: split (w mod inner) (d :: rest |> List.tl)
  in
  let per_dim = split w b.cfg.iterations in
  List.map2
    (fun (o, s) l -> l + (o * s))
    (List.combine per_dim b.cfg.stride)
    b.cfg.lower
  |> fun l -> l

(* Flat row-major index of a multi-dim position. *)
let flat_index (dims : int list) (pos : int list) : int =
  List.fold_left2 (fun acc d p -> (acc * d) + p) 0 dims pos

(* Highest flat index the window at [origin] touches. *)
let window_reach (b : t) (origin : int list) : int =
  let positions =
    List.map
      (fun offset -> List.map2 (fun o c -> o + c) origin offset)
      b.cfg.window_offsets
  in
  List.fold_left
    (fun acc pos -> max acc (flat_index b.cfg.array_dims pos))
    0 positions

(* Reach of the next window, computed once per window: the simulator asks
   whether it is ready several times a cycle. *)
let next_reach (b : t) : int =
  if b.reach_window <> b.window_index then begin
    b.reach <- window_reach b (window_origin b b.window_index);
    b.reach_window <- b.window_index
  end;
  b.reach

(** Is the next window fully buffered? *)
let window_ready (b : t) : bool =
  b.window_index < total_windows b.cfg && next_reach b < b.arrived

(** Export the next window's values (in offset order) to the data path and
    advance; [None] when data is still missing or iteration is complete. *)
let pop_window (b : t) : int64 array option =
  if not (window_ready b) then None
  else begin
    let origin = window_origin b b.window_index in
    let values =
      List.map
        (fun offset ->
          let pos = List.map2 (fun o c -> o + c) origin offset in
          List.iter2
            (fun p d ->
              if p < 0 || p >= d then
                errf "smart buffer: window position out of the array")
            pos b.cfg.array_dims;
          b.data.(flat_index b.cfg.array_dims pos))
        b.cfg.window_offsets
    in
    b.window_index <- b.window_index + 1;
    b.stats.exported_windows <- b.stats.exported_windows + 1;
    Some (Array.of_list values)
  end

let finished (b : t) : bool = b.window_index >= total_windows b.cfg

let stats (b : t) = b.stats

(** Memory traffic of a naive implementation that re-fetches the whole
    window every iteration — the Streams-C-style comparison in §3. *)
let naive_fetches (cfg : config) : int =
  total_windows cfg * List.length cfg.window_offsets

(** Reuse ratio: naive fetches / smart-buffer fetches. *)
let reuse_ratio (b : t) : float =
  if b.stats.fetched_elements = 0 then 1.0
  else
    float_of_int (naive_fetches b.cfg)
    /. float_of_int b.stats.fetched_elements
