(** Rows of machine words stored unboxed: the value buffers of the cycle
    engine (register file, BRAM contents, smart-buffer store, FIFO ring,
    launch and retire traces). Reading or writing a word of a [t] whose
    type is known at the access allocates nothing, where an [int64 array]
    boxes every value it stores. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n]: [n] zero words. *)

val of_array : int64 array -> t
val to_array : t -> int64 array

val shift : int -> int
(** [shift bits] = [64 - bits]: shifting a word left and back right by it
    wraps the word to [bits] bits, as [Bits.truncate] does. Raises
    [Invalid_argument] outside [1, 64]. *)

val blit_wrapped :
  signed:bool -> shift:int -> t -> int -> t -> int -> int -> unit
(** [blit_wrapped ~signed ~shift src i dst j n] copies words [i .. i+n-1]
    of [src] to [j .. j+n-1] of [dst], each wrapped to [64 - shift] bits
    (sign- or zero-extended). *)
