(** Feedback annotation (paper §4.2.1, Figure 4): loop-carried scalars
    detected by scalar replacement are rewritten so that every read of the
    previous iteration's value goes through [ROCCC_load_prev] and the write
    of the new value goes through [ROCCC_store2next]. The back-end lowers
    these to LPR / SNX opcodes, and the pipeliner gives each SNX a latch
    feeding its LPR (paper §4.2.3). *)

open Roccc_cfront.Ast
module K = Kernel
module Diag = Roccc_util.Diag


(* Rewrite the body of the data-path function for one feedback variable.
   Reads of [name] before its (re)definition on the current path become
   ROCCC_load_prev(name); intermediate assignments stay plain (SSA phis
   merge conditional updates into a single value); one unconditional
   ROCCC_store2next(name, name) is appended at the end of the body. The
   store must be unconditional: in hardware every lane executes and the
   feedback latch loads every cycle, so a store inside a branch would
   clobber the register on not-taken iterations. *)
let rewrite_var counter (name : string) (kind : ikind) (stmts : stmt list) :
    stmt list =
  ignore counter;
  ignore kind;
  (* [written] — may the variable have been assigned already? Reads become
     load_prev only while definitely unwritten; after a conditional write
     the raw variable carries the phi-merged value (the leading LPR bound at
     procedure entry supplies the not-taken lane). *)
  let load_rewrite ~written e =
    if written then e
    else
      map_expr
        (fun e' ->
          match e' with
          | Var x when String.equal x name -> Call (roccc_load_prev, [ Var x ])
          | _ -> e')
        e
  in
  let rec go written stmts =
    let written, rev =
      List.fold_left
        (fun (written, acc) s ->
          let written, ss = go_stmt written s in
          written, List.rev_append ss acc)
        (written, []) stmts
    in
    written, List.rev rev
  and go_stmt written s : bool * stmt list =
    match s with
    | Sassign (Lvar x, e) when String.equal x name ->
      let e' = load_rewrite ~written e in
      true, [ Sassign (Lvar x, e') ]
    | Sassign (lv, e) -> written, [ Sassign (lv, load_rewrite ~written e) ]
    | Sdecl (t, n, init) ->
      written, [ Sdecl (t, n, Option.map (load_rewrite ~written) init) ]
    | Sif (c, th, el) ->
      let c' = load_rewrite ~written c in
      let w_th, th' = go written th in
      let w_el, el' = go written el in
      (* Maybe-written if either branch wrote. *)
      w_th || w_el, [ Sif (c', th', el') ]
    | Sreturn e ->
      written, [ Sreturn (Option.map (load_rewrite ~written) e) ]
    | Sexpr e -> written, [ Sexpr (load_rewrite ~written e) ]
    | Sfor _ ->
      Diag.failf "feedback"
        "feedback rewriting inside nested loops is unsupported"
  in
  let body = snd (go false stmts) in
  body @ [ Sexpr (Call (roccc_store2next, [ Var name; Var name ])) ]

(** Annotate the kernel's data-path function with LPR/SNX intrinsics for each
    detected feedback variable (no-op when there is no feedback). *)
let annotate (k : K.t) : K.t =
  if k.K.feedback = [] then k
  else begin
    let counter = Roccc_util.Id_gen.create () in
    let body =
      List.fold_left
        (fun body fb -> rewrite_var counter fb.K.fb_name fb.K.fb_kind body)
        k.K.dp.body k.K.feedback
    in
    { k with K.dp = { k.K.dp with body } }
  end

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Every feedback variable must have exactly one store2next, unconditional
   at the top level of the dp body: the SNX latch loads every cycle, so the
   stored value must be defined on every path. *)
let validate (k : K.t) : unit =
  let dp_body = k.K.dp.body in
  List.iter
    (fun fb ->
      let name = fb.K.fb_name in
      let is_store s =
        match s with
        | Sexpr (Call (f, Var x :: _)) ->
          String.equal f roccc_store2next && String.equal x name
        | _ -> false
      in
      let top_level_stores = List.length (List.filter is_store dp_body) in
      let total_stores =
        fold_stmts
          (fun acc s -> if is_store s then acc + 1 else acc)
          (fun acc _ -> acc)
          0 dp_body
      in
      if total_stores = 0 then
        Diag.failf "feedback"
          "feedback variable %s has no %s" name roccc_store2next;
      if total_stores <> 1 || top_level_stores <> 1 then
        Diag.failf "feedback"
          "feedback variable %s must have exactly one unconditional %s (found \
           %d, %d at top level)"
          name roccc_store2next total_stores top_level_stores)
    k.K.feedback
