(** The compiler's central loop-level product: a [kernel] couples the pure
    scalar data-path function (Figures 3c / 4c) with the memory access
    descriptors the controller and smart-buffer generators consume (§4.1)
    and the loop information driving iteration. *)

open Roccc_cfront.Ast

(** One normalized loop dimension: [count] values from [lower], advancing by
    [step]. Outermost first in [t.loops]. *)
type loop_dim = { index : string; lower : int; count : int; step : int }

(** A sliding-window input array; [win_scalars] maps each offset vector to
    the dp parameter name carrying it (A0, A1, ... in the paper). *)
type window_input = {
  win_array : string;
  win_kind : ikind;
  win_dims : int list;
  win_offsets : int list list;  (** sorted offset vectors *)
  win_scalars : (int list * string) list;
}

type output_target =
  | Out_array of { arr : string; kind : ikind; dims : int list; offset : int list }
      (** written at loop position + offset each iteration *)
  | Out_scalar of { name : string; kind : ikind }
      (** pointer output: holds the last value *)

(** An output port: dp writes [*port] each iteration, routed to [target]. *)
type output = { port : string; port_kind : ikind; target : output_target }

(** A loop-carried scalar living in an LPR/SNX feedback register. *)
type feedback_var = { fb_name : string; fb_kind : ikind; fb_init : int64 }

type t = {
  kname : string;
  dp : func;  (** scalar data-path function (Figure 3c / 4c) *)
  transformed : func;  (** whole function after scalar replacement (3b) *)
  original : func;  (** as written (3a) *)
  loops : loop_dim list;  (** empty for block/combinational kernels *)
  windows : window_input list;
  scalar_inputs : param list;
  outputs : output list;
  feedback : feedback_var list;
}

val iteration_space : t -> int
(** Product of the loop trip counts (1 when loop-free). *)

val verify : t -> unit
(** Well-formedness of a scalar-replaced kernel: dp is pure scalar code,
    window scalars / scalar inputs / output ports all appear as dp parameters
    of the right shape, offsets match the array rank, loops are
    non-degenerate, feedback names are distinct. Raises
    {!Roccc_util.Diag.Error}. *)

val describe : t -> string
