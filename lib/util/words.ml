(** Rows of machine words stored unboxed (see words.mli). *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let of_array (values : int64 array) : t =
  Bigarray.Array1.of_array Bigarray.int64 Bigarray.c_layout values

let to_array (a : t) : int64 array =
  Array.init (Bigarray.Array1.dim a) (fun i -> a.{i})

let shift bits =
  if bits < 1 || bits > 64 then
    invalid_arg (Printf.sprintf "Words.shift: width %d out of [1;64]" bits);
  64 - bits

(* Sign- or zero-extend the low [64 - s] bits: a shift pair, no mask. *)
let[@inline] wrap ~signed s v =
  if signed then Int64.shift_right (Int64.shift_left v s) s
  else Int64.shift_right_logical (Int64.shift_left v s) s

let blit_wrapped ~signed ~shift (src : t) i (dst : t) j n =
  for k = 0 to n - 1 do
    dst.{j + k} <- wrap ~signed shift src.{i + k}
  done
