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

module Words = Roccc_util.Words

type t = {
  cfg : config;
  data : Words.t;                 (** arrival store, flat row-major *)
  mutable arrived : int;          (** elements received so far (in order) *)
  mutable window_index : int;     (** next window number to export *)
  origin : int array;             (** that window's origin, per dim *)
  mutable origin_flat : int;      (** its flat row-major index *)
  mutable reach : int;            (** highest flat index it touches *)
  stats : stats;
  (* derived from [cfg] once *)
  dims : int array;
  iterations : int array;
  stride : int array;
  lower : int array;
  offset_flat : int array;   (** flat displacement of each window offset *)
  offset_min : int array;    (** smallest offset per dim *)
  offset_max : int array;    (** largest offset per dim *)
  windows : int;
  shift : int;               (** {!Words.shift} of the element width *)
}

let total_elements (cfg : config) = List.fold_left ( * ) 1 cfg.array_dims

let total_windows (cfg : config) = List.fold_left ( * ) 1 cfg.iterations

(* Extent per dimension: max offset + 1 relative to the window origin
   (offsets are relative to the loop indices). *)
let extents (cfg : config) : int list =
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

let config (b : t) : config = b.cfg

(** Deliver the next memory word: the first [count] words of [src]
    ([<= bus_elements], in row-major order). The address generator
    guarantees in-order delivery. *)
let push (b : t) (src : Words.t) (count : int) : unit =
  if count > b.cfg.bus_elements then
    errf "smart buffer: %d elements exceed the bus width %d" count
      b.cfg.bus_elements;
  if b.arrived + count > Bigarray.Array1.dim b.data then
    errf "smart buffer: more data than the array holds";
  Words.blit_wrapped ~signed:b.cfg.element_signed ~shift:b.shift src 0 b.data
    b.arrived count;
  b.arrived <- b.arrived + count;
  b.stats.fetched_elements <- b.stats.fetched_elements + count

(* Point [origin] at window [w]: its number splits mixed-radix into
   per-dimension iteration coordinates (the outermost takes the
   quotient). *)
let locate (b : t) (w : int) : unit =
  let w = ref w and flat = ref 0 and scale = ref 1 in
  for d = Array.length b.dims - 1 downto 0 do
    let c =
      if d = 0 then !w
      else begin
        let c = !w mod b.iterations.(d) in
        w := !w / b.iterations.(d);
        c
      end
    in
    let o = b.lower.(d) + (c * b.stride.(d)) in
    b.origin.(d) <- o;
    flat := !flat + (o * !scale);
    scale := !scale * b.dims.(d)
  done;
  b.origin_flat <- !flat;
  b.reach <- 0;
  for k = 0 to Array.length b.offset_flat - 1 do
    b.reach <- max b.reach (!flat + b.offset_flat.(k))
  done

let create (cfg : config) : t =
  if cfg.bus_elements < 1 then errf "smart buffer: bus must carry >= 1 element";
  (match cfg.array_dims with
  | [ _ ] | [ _; _ ] -> ()
  | _ -> errf "smart buffer: 1-D or 2-D arrays only");
  let dims = Array.of_list cfg.array_dims in
  let ndims = Array.length dims in
  let per_dim name l =
    if List.length l <> ndims then
      errf "smart buffer: %s has %d entries for a %d-D array" name
        (List.length l) ndims;
    Array.of_list l
  in
  let offsets = List.map (per_dim "a window offset") cfg.window_offsets in
  let flat (pos : int array) =
    let acc = ref 0 in
    Array.iteri (fun d p -> acc := (!acc * dims.(d)) + p) pos;
    !acc
  in
  let extreme pick =
    Array.init ndims (fun d ->
        match offsets with
        | [] -> 0
        | o :: rest -> List.fold_left (fun acc o -> pick acc o.(d)) o.(d) rest)
  in
  let b =
    { cfg;
      data = Words.create (total_elements cfg);
      arrived = 0;
      window_index = 0;
      origin = Array.make ndims 0;
      origin_flat = 0;
      reach = 0;
      stats = { fetched_elements = 0; exported_windows = 0 };
      dims;
      iterations = per_dim "iterations" cfg.iterations;
      stride = per_dim "stride" cfg.stride;
      lower = per_dim "lower" cfg.lower;
      offset_flat = Array.of_list (List.map flat offsets);
      offset_min = extreme min;
      offset_max = extreme max;
      windows = total_windows cfg;
      shift = Words.shift cfg.element_bits }
  in
  locate b 0;
  b

(** Is the next window fully buffered? *)
let window_ready (b : t) : bool =
  b.window_index < b.windows && b.reach < b.arrived

(** Export the next window's values (in offset order) to words [at ..] of
    [dst] and advance; false, writing nothing, when data is still missing
    or iteration is complete. *)
let pop_window (b : t) (dst : Words.t) (at : int) : bool =
  if not (window_ready b) then false
  else begin
    if Array.length b.offset_flat > 0 then
      for d = 0 to Array.length b.dims - 1 do
        if b.origin.(d) + b.offset_min.(d) < 0
           || b.origin.(d) + b.offset_max.(d) >= b.dims.(d)
        then errf "smart buffer: window position out of the array"
      done;
    for k = 0 to Array.length b.offset_flat - 1 do
      dst.{at + k} <- b.data.{b.origin_flat + b.offset_flat.(k)}
    done;
    b.window_index <- b.window_index + 1;
    b.stats.exported_windows <- b.stats.exported_windows + 1;
    locate b b.window_index;
    true
  end

let finished (b : t) : bool = b.window_index >= b.windows

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
