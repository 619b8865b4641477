(** Loop-level transformations (paper §2): full and partial unrolling,
    fusion, and strip-mining. *)

val iteration_values : Roccc_cfront.Ast.for_header -> int list option
(** Index values of a constant-bound loop in execution order; [None] for
    non-constant headers or absurdly long ([> 2^20]) loops. *)

val trip_count : Roccc_cfront.Ast.for_header -> int option

val partially_unroll :
  factor:int ->
  Roccc_cfront.Ast.for_header ->
  Roccc_cfront.Ast.stmt list ->
  Roccc_cfront.Ast.for_header * Roccc_cfront.Ast.stmt list
(** Replicate the body [factor] times with stepped index offsets and scale
    the loop step; the trip count must be divisible by the factor. *)

val unroll_small_loops :
  max_trip:int -> Roccc_cfront.Ast.stmt list -> Roccc_cfront.Ast.stmt list
(** Fully unroll every constant-bound loop with at most [max_trip]
    iterations, anywhere in the statement list (innermost first). *)

val fuse_loops : Roccc_cfront.Ast.stmt list -> Roccc_cfront.Ast.stmt list
(** Fuse adjacent loops with identical headers when no array or scalar
    written by the first is touched by the second (conservative
    dependence test). *)

val strip_mine :
  width:int ->
  Roccc_cfront.Ast.for_header ->
  Roccc_cfront.Ast.stmt list ->
  Roccc_cfront.Ast.stmt
(** Split a constant-bound unit-step loop into strips of [width] (an outer
    strip loop over an inner unit loop); the trip count must be divisible
    by the width. *)
