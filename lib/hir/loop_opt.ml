(** Loop-level transformations: full/partial unrolling, fusion and
    strip-mining (paper §2: "at loop level ROCCC performs FPGA-specific
    optimizations, such as loop strip-mining, loop fusion, etc."). *)

open Roccc_cfront.Ast
module Diag = Roccc_util.Diag

(* ------------------------------------------------------------------ *)
(* Trip counts                                                         *)
(* ------------------------------------------------------------------ *)

(** Iteration values of a constant-bound loop header, in execution order.
    Returns [None] when any of init/bound/step is not a literal constant. *)
let iteration_values (h : for_header) : int list option =
  match h.init, h.bound, h.step with
  | Const init, Const bound, Const step ->
    let init = Int64.to_int init
    and bound = Int64.to_int bound
    and step = Int64.to_int step in
    if step = 0 then None
    else begin
      let continue_at i =
        match h.cond_op with
        | Lt -> i < bound
        | Le -> i <= bound
        | Gt -> i > bound
        | Ge -> i >= bound
        | Ne -> i <> bound
        | _ -> false
      in
      (* Guard against unbounded Ne loops stepping over the bound. *)
      let max_iters = 1 lsl 20 in
      let rec loop i acc n =
        if not (continue_at i) then Some (List.rev acc)
        else if n > max_iters then None
        else loop (i + step) (i :: acc) (n + 1)
      in
      loop init [] 0
    end
  | (Const _ | Var _ | Index _ | Deref _ | Binop _ | Unop _ | Call _ | Cast _),
    _, _ ->
    None

let trip_count h = Option.map List.length (iteration_values h)

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

(* Substitute constant [value] for variable [name] in a statement list. *)
let subst_var name value stmts =
  let f = function
    | Var x when String.equal x name -> Const (Int64.of_int value)
    | e -> e
  in
  map_stmts f stmts

(** Fully unroll a constant-bound loop into straight-line code. "Full loop
    unrolling converts a for-loop with constant bounds into a non-iterative
    block of code and therefore eliminates the loop controller" (paper §2). *)
let fully_unroll (h : for_header) (body : stmt list) : stmt list =
  match iteration_values h with
  | None ->
    Diag.failf "loop optimization"
      "cannot fully unroll: loop %s has non-constant bounds" h.index
  | Some values ->
    List.concat_map (fun i -> subst_var h.index i body) values

(** Unroll by [factor]: the body is replicated [factor] times per iteration
    with index offsets 0, step, 2*step, ...; the step is multiplied. The trip
    count must be divisible by the factor. *)
let partially_unroll ~factor (h : for_header) (body : stmt list) :
    for_header * stmt list =
  if factor < 1 then
    Diag.failf "loop optimization" "unroll factor must be >= 1";
  if factor = 1 then h, body
  else
    match trip_count h, h.step with
    | Some n, Const step ->
      if n mod factor <> 0 then
        Diag.failf "loop optimization"
          "unroll factor %d does not divide trip count %d" factor n;
      let step = Int64.to_int step in
      let shift_index k stmts =
        (* index -> index + k*step in every expression *)
        let f = function
          | Var x when String.equal x h.index ->
            Binop (Add, Var x, Const (Int64.of_int (k * step)))
          | e -> e
        in
        map_stmts f stmts
      in
      let body' =
        List.concat (List.init factor (fun k -> shift_index k body))
      in
      let h' = { h with step = Const (Int64.of_int (factor * step)) } in
      h', body'
    | _ ->
      Diag.failf "loop optimization"
        "cannot unroll: loop %s has non-constant bounds" h.index

(* Apply full unrolling to every constant-bound loop in a body whose trip
   count is at most [max_trip]. *)
let rec unroll_small_loops ~max_trip stmts =
  List.concat_map
    (fun s ->
      match s with
      | Sfor (h, body) -> (
        let body = unroll_small_loops ~max_trip body in
        match trip_count h with
        | Some n when n <= max_trip -> fully_unroll h body
        | Some _ | None -> [ Sfor (h, body) ])
      | Sif (c, th, el) ->
        [ Sif (c, unroll_small_loops ~max_trip th,
               unroll_small_loops ~max_trip el) ]
      | Sdecl _ | Sassign _ | Sreturn _ | Sexpr _ -> [ s ])
    stmts

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

(* Arrays written / read by a statement list. *)
let arrays_written stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Sassign (Lindex (a, _), _) -> a :: acc
      | Sassign _ | Sdecl _ | Sif _ | Sfor _ | Sreturn _ | Sexpr _ -> acc)
    (fun acc _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

let array_reads stmts =
  fold_stmts
    (fun acc _ -> acc)
    (fun acc e ->
      match e with
      | Index (a, _) -> a :: acc
      | Const _ | Var _ | Deref _ | Binop _ | Unop _ | Call _ | Cast _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

let scalars_written stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Sassign (Lvar x, _) | Sdecl (Tint _, x, Some _) -> x :: acc
      | Sexpr (Call (f, Var x :: _)) when String.equal f roccc_store2next ->
        x :: acc
      | Sassign _ | Sdecl _ | Sif _ | Sfor _ | Sreturn _ | Sexpr _ -> acc)
    (fun acc _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

let scalar_reads stmts =
  fold_stmts
    (fun acc _ -> acc)
    (fun acc e ->
      match e with
      | Var x -> x :: acc
      | Const _ | Index _ | Deref _ | Binop _ | Unop _ | Call _ | Cast _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

let same_header (h1 : for_header) (h2 : for_header) =
  String.equal h1.index h2.index
  && equal_expr h1.init h2.init
  && equal_expr h1.bound h2.bound
  && equal_expr h1.step h2.step
  && h1.cond_op = h2.cond_op

(* Conservative legality: the loops must have identical headers and be
   independent — no array or scalar written by loop 1 may be touched by
   loop 2 (and vice versa for writes). Offset-aware dependence testing is
   future work; this suffices for the paper's producer-free pairs. *)
let can_fuse (h1, b1) (h2, b2) =
  same_header h1 h2
  &&
  let w1 = arrays_written b1 and w2 = arrays_written b2 in
  let r2 = array_reads b2 in
  let sw1 = scalars_written b1 and sw2 = scalars_written b2 in
  let sr2 = scalar_reads b2 in
  List.for_all (fun a -> not (List.mem a r2) && not (List.mem a w2)) w1
  && List.for_all
       (fun x -> not (List.mem x sr2) && not (List.mem x sw2))
       sw1

(** Fuse adjacent independent loops with identical headers in a body. *)
let rec fuse_loops stmts =
  match stmts with
  | Sfor (h1, b1) :: Sfor (h2, b2) :: rest when can_fuse (h1, b1) (h2, b2) ->
    fuse_loops (Sfor (h1, b1 @ b2) :: rest)
  | Sfor (h, b) :: rest -> Sfor (h, fuse_loops b) :: fuse_loops rest
  | Sif (c, th, el) :: rest ->
    Sif (c, fuse_loops th, fuse_loops el) :: fuse_loops rest
  | s :: rest -> s :: fuse_loops rest
  | [] -> []

(* ------------------------------------------------------------------ *)
(* Strip-mining                                                        *)
(* ------------------------------------------------------------------ *)

(** Strip-mine a constant-bound unit-step loop into an outer loop over strips
    of [width] and an inner unit loop. The trip count must be divisible by
    the width (the common case when sizing strips to buffer capacity). *)
let strip_mine ~width (h : for_header) (body : stmt list) : stmt =
  if width < 1 then Diag.failf "loop optimization" "strip width must be >= 1";
  match h.init, h.bound, h.step, h.cond_op with
  | Const init, Const bound, Const 1L, Lt ->
    let init = Int64.to_int init and bound = Int64.to_int bound in
    let n = bound - init in
    if n mod width <> 0 then
      Diag.failf "loop optimization"
        "strip width %d does not divide trip count %d" width n;
    let outer_index = h.index ^ "_strip" in
    let inner =
      Sfor
        ( { index = h.index;
            init = Var outer_index;
            cond_op = Lt;
            bound = Binop (Add, Var outer_index, Const (Int64.of_int width));
            step = Const 1L },
          body )
    in
    Sfor
      ( { index = outer_index;
          init = Const (Int64.of_int init);
          cond_op = Lt;
          bound = Const (Int64.of_int bound);
          step = Const (Int64.of_int width) },
        [ inner ] )
  | _ ->
    Diag.failf "loop optimization"
      "strip-mining requires a constant-bound unit-step loop"
