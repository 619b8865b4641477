(** The compiler's central product at the loop level: a [kernel] couples the
    pure scalar data-path function (paper Figure 3c / 4c) with the memory
    access descriptors the controller and smart-buffer generators consume
    (paper §4.1), and the loop information driving iteration. *)

open Roccc_cfront.Ast
module Diag = Roccc_util.Diag

(** One normalized loop dimension: the index takes [count] values starting at
    [lower], advancing by [step]. Outermost dimension first in [t.loops]. *)
type loop_dim = { index : string; lower : int; count : int; step : int }

(** A sliding-window input array: each iteration the data path consumes the
    elements at [base + offset] for every offset, where [base] advances by
    the loop steps. [scalars] maps each offset vector to the name of the
    window scalar parameter in the dp function (A0, A1, ... in the paper). *)
type window_input = {
  win_array : string;
  win_kind : ikind;
  win_dims : int list;                     (** declared array dimensions *)
  win_offsets : int list list;             (** sorted offset vectors *)
  win_scalars : (int list * string) list;  (** offset -> dp parameter name *)
}

type output_target =
  | Out_array of { arr : string; kind : ikind; dims : int list; offset : int list }
      (** written at loop position + offset each iteration *)
  | Out_scalar of { name : string; kind : ikind }
      (** pointer output of the original function: holds the last value *)

(** An output port of the data path: dp writes [*port] each iteration; the
    surrounding circuit routes it to [target]. *)
type output = { port : string; port_kind : ikind; target : output_target }

(** A loop-carried scalar (accumulator): lives in a feedback register,
    accessed through LPR/SNX in the data path. *)
type feedback_var = { fb_name : string; fb_kind : ikind; fb_init : int64 }

type t = {
  kname : string;
  dp : func;             (** scalar data-path function (Figure 3c / 4c) *)
  transformed : func;    (** whole function after scalar replacement (3b) *)
  original : func;       (** the function as written (3a) *)
  loops : loop_dim list; (** empty for purely combinational kernels *)
  windows : window_input list;
  scalar_inputs : param list;  (** live-in scalar parameters fed to dp *)
  outputs : output list;
  feedback : feedback_var list;
}

let iteration_space (k : t) : int =
  List.fold_left (fun acc d -> acc * d.count) 1 k.loops

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(** Invariants of a scalar-replaced kernel: the dp function is pure scalar
    code (no array parameters), every window scalar and live-in scalar is a
    scalar parameter of dp, every output port is a pointer parameter of dp,
    window offsets are consistent with the array rank, loop dimensions are
    non-degenerate, and feedback names are distinct. Raises
    {!Roccc_util.Diag.Error} on the first violation. *)
let verify (k : t) : unit =
  let dp_params = k.dp.params in
  let param name = List.find_opt (fun p -> String.equal p.pname name) dp_params in
  List.iter
    (fun p ->
      match p.ptype with
      | Tarray _ ->
        Diag.failf "kernel"
          "kernel %s: dp function keeps array parameter %s" k.kname p.pname
      | Tint _ | Tptr _ | Tvoid -> ())
    dp_params;
  List.iter
    (fun w ->
      let rank = List.length w.win_dims in
      if rank = 0 then
        Diag.failf "kernel"
          "kernel %s: window on %s has no dimensions" k.kname w.win_array;
      List.iter
        (fun off ->
          if List.length off <> rank then
            Diag.failf "kernel"
              "kernel %s: window offset on %s has rank %d, array has rank %d"
              k.kname w.win_array (List.length off) rank)
        w.win_offsets;
      if
        List.sort compare (List.map fst w.win_scalars)
        <> List.sort compare w.win_offsets
      then
        Diag.failf "kernel"
          "kernel %s: window scalars on %s do not cover the offsets"
          k.kname w.win_array;
      List.iter
        (fun (_, name) ->
          match param name with
          | Some { ptype = Tint _; _ } -> ()
          | Some _ ->
            Diag.failf "kernel"
              "kernel %s: window scalar %s is not a scalar dp parameter"
              k.kname name
          | None ->
            Diag.failf "kernel"
              "kernel %s: window scalar %s missing from dp parameters"
              k.kname name)
        w.win_scalars)
    k.windows;
  List.iter
    (fun p ->
      match param p.pname with
      | Some { ptype = Tint _; _ } -> ()
      | Some _ ->
        Diag.failf "kernel"
          "kernel %s: scalar input %s is not a scalar dp parameter"
          k.kname p.pname
      | None ->
        Diag.failf "kernel"
          "kernel %s: scalar input %s missing from dp parameters"
          k.kname p.pname)
    k.scalar_inputs;
  List.iter
    (fun o ->
      match param o.port with
      | Some { ptype = Tptr _; _ } -> ()
      | Some _ ->
        Diag.failf "kernel"
          "kernel %s: output port %s is not a pointer dp parameter"
          k.kname o.port
      | None ->
        Diag.failf "kernel"
          "kernel %s: output port %s missing from dp parameters" k.kname o.port)
    k.outputs;
  List.iter
    (fun d ->
      if d.count < 1 then
        Diag.failf "kernel"
          "kernel %s: loop %s has trip count %d" k.kname d.index d.count;
      if d.step = 0 then
        Diag.failf "kernel" "kernel %s: loop %s has step 0" k.kname d.index)
    k.loops;
  let fb_names = List.map (fun f -> f.fb_name) k.feedback in
  if List.length (List.sort_uniq String.compare fb_names) <> List.length fb_names
  then Diag.failf "kernel" "kernel %s: duplicate feedback variable" k.kname

(** Window extent (max offset - min offset + 1) per dimension, or [] when the
    kernel has no window inputs. *)
let window_extent (w : window_input) : int list =
  match w.win_offsets with
  | [] -> []
  | first :: _ ->
    let ndims = List.length first in
    List.init ndims (fun d ->
        let dth v = List.nth v d in
        let lo =
          List.fold_left (fun acc v -> min acc (dth v)) (dth first)
            w.win_offsets
        and hi =
          List.fold_left (fun acc v -> max acc (dth v)) (dth first)
            w.win_offsets
        in
        hi - lo + 1)

(** Human-readable summary used by examples and the bench harness. *)
let describe (k : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "kernel %s\n" k.kname);
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  loop %s: %d iterations from %d step %d\n" d.index
           d.count d.lower d.step))
    k.loops;
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  window on %s: offsets [%s] extent [%s]\n"
           w.win_array
           (String.concat "; "
              (List.map
                 (fun v -> String.concat "," (List.map string_of_int v))
                 w.win_offsets))
           (String.concat "," (List.map string_of_int (window_extent w)))))
    k.windows;
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "  scalar in: %s\n" p.pname))
    k.scalar_inputs;
  List.iter
    (fun o ->
      match o.target with
      | Out_array { arr; offset; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "  output %s -> %s[+%s]\n" o.port arr
             (String.concat "," (List.map string_of_int offset)))
      | Out_scalar { name; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "  output %s -> scalar %s (last value)\n" o.port name))
    k.outputs;
  List.iter
    (fun fb ->
      Buffer.add_string buf
        (Printf.sprintf "  feedback %s (init %Ld)\n" fb.fb_name fb.fb_init))
    k.feedback;
  Buffer.contents buf
