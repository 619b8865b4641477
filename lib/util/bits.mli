(** Fixed-width two's-complement arithmetic helpers. *)

val bits_for_unsigned : int64 -> int
(** Minimal width representing the value as unsigned; 64 for negatives. *)

val bits_for_signed : int64 -> int
(** Minimal two's-complement width (including sign bit). *)

val mask : int -> int64
(** [mask w] has the low [w] bits set. *)

val truncate_unsigned : int -> int64 -> int64
val truncate_signed : int -> int64 -> int64

val truncate : signed:bool -> int -> int64 -> int64
(** Wrap a value to [width] bits under the given signedness. *)

val min_value : signed:bool -> int -> int64
val max_value : signed:bool -> int -> int64

val fits : signed:bool -> int -> int64 -> bool
(** Does the value fit in [width] bits without wrapping? *)

val clog2 : int -> int
(** [clog2 n] is the address width needed to index [n] entries. *)

val to_binary_string : width:int -> int64 -> string
(** Little-endian-free binary rendering, MSB first, used by ROM init files. *)
