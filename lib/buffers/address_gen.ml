(** Address generators (paper §4.1): parameterized FSMs that "export a
    series of memory addresses according to the memory access pattern".
    The input generator streams every array element once, in row-major
    order, [bus_elements] per access; the output generator produces one
    store address per exported window. *)

(* ------------------------------------------------------------------ *)
(* Input side: sequential whole-array scan                             *)
(* ------------------------------------------------------------------ *)

module Diag = Roccc_util.Diag

type input_gen = {
  total : int;
  bus_elements : int;
  mutable next : int;
}

let create_input ~(array_dims : int list) ~(bus_elements : int) : input_gen =
  if bus_elements < 1 then
    Diag.failf "address generator" "address generator: bus must be >= 1";
  { total = List.fold_left ( * ) 1 array_dims; bus_elements; next = 0 }

(** Claim the next burst of consecutive addresses: returns its length, 0
    once the array is exhausted. The burst starts at [issued g] as it was
    before the call. *)
let next_read (g : input_gen) : int =
  let count = min g.bus_elements (g.total - g.next) in
  if count <= 0 then 0
  else begin
    g.next <- g.next + count;
    count
  end

(** Addresses issued so far (each element exactly once). *)
let issued (g : input_gen) : int = g.next

(* ------------------------------------------------------------------ *)
(* Output side: one address per iteration, following the write pattern *)
(* ------------------------------------------------------------------ *)

(* Per-dimension arrays, outermost first. *)
type output_gen = {
  out_dims : int array;      (** output array dimensions *)
  iterations : int array;    (** loop iteration counts *)
  stride : int array;
  base : int array;          (** lower bound + write offset *)
  total : int;               (** stores in all *)
  mutable window : int;      (** next window number *)
}

let create_output ~(out_dims : int list) ~(iterations : int list)
    ~(stride : int list) ~(lower : int list) ~(offset : int list) : output_gen
    =
  let ndims = List.length iterations in
  if List.length out_dims <> ndims || List.length stride <> ndims
     || List.length lower <> ndims || List.length offset <> ndims
  then invalid_arg "Address_gen.create_output: dimension counts differ";
  { out_dims = Array.of_list out_dims;
    iterations = Array.of_list iterations;
    stride = Array.of_list stride;
    base = Array.of_list (List.map2 ( + ) lower offset);
    total = List.fold_left ( * ) 1 iterations;
    window = 0 }

(** Store address for the next window, or -1 when complete. The window
    number splits mixed-radix into per-dimension iteration coordinates
    (the outermost takes the quotient). *)
let next_write (g : output_gen) : int =
  if g.window >= g.total then -1
  else begin
    let n = Array.length g.iterations in
    let w = ref g.window and addr = ref 0 and scale = ref 1 in
    for d = n - 1 downto 0 do
      let c =
        if d = 0 then !w
        else begin
          let c = !w mod g.iterations.(d) in
          w := !w / g.iterations.(d);
          c
        end
      in
      let p = g.base.(d) + (c * g.stride.(d)) in
      if p < 0 || p >= g.out_dims.(d) then
        Diag.failf "address generator"
          "output address generator: position out of the output array";
      addr := !addr + (p * !scale);
      scale := !scale * g.out_dims.(d)
    done;
    g.window <- g.window + 1;
    !addr
  end
