(** Function inlining. "Function calls will either be inlined or whenever
    feasible made into a lookup table" (paper §2). *)

open Roccc_cfront.Ast
module Diag = Roccc_util.Diag

(* Rename every local/param of [callee] with a unique prefix so inlined
   copies never collide with caller names or with each other. The counter
   is per-[inline_calls] invocation, not global: inlined names must not
   depend on what else the process compiled before (reproducible output),
   and a module-level counter would race under parallel compilation. *)
let freshen_body rename_counter (callee : func) :
    (string * string) list * stmt list =
  let n = Roccc_util.Id_gen.fresh rename_counter in
  let prefix name = Printf.sprintf "%s_%d_%s" callee.fname n name in
  let declared =
    fold_stmts
      (fun acc s ->
        match s with
        | Sdecl (_, x, _) -> x :: acc
        | Sfor (h, _) -> h.index :: acc
        | Sassign _ | Sif _ | Sreturn _ | Sexpr _ -> acc)
      (fun acc _ -> acc)
      [] callee.body
  in
  let names =
    List.sort_uniq String.compare
      (List.map (fun p -> p.pname) callee.params @ declared)
  in
  let mapping = List.map (fun x -> x, prefix x) names in
  let rename_expr = function
    | Var x as e -> (
      match List.assoc_opt x mapping with Some x' -> Var x' | None -> e)
    | Index (a, idx) as e -> (
      match List.assoc_opt a mapping with
      | Some a' -> Index (a', idx)
      | None -> e)
    | Deref x as e -> (
      match List.assoc_opt x mapping with Some x' -> Deref x' | None -> e)
    | e -> e
  in
  let rec rename_stmt s =
    match s with
    | Sdecl (t, x, init) ->
      Sdecl (t, Option.value (List.assoc_opt x mapping) ~default:x,
             Option.map (map_expr rename_expr) init)
    | Sassign (lv, e) ->
      let lv' =
        match lv with
        | Lvar x -> Lvar (Option.value (List.assoc_opt x mapping) ~default:x)
        | Lderef x ->
          Lderef (Option.value (List.assoc_opt x mapping) ~default:x)
        | Lindex (a, idx) ->
          Lindex
            ( Option.value (List.assoc_opt a mapping) ~default:a,
              List.map (map_expr rename_expr) idx )
      in
      Sassign (lv', map_expr rename_expr e)
    | Sif (c, th, el) ->
      Sif (map_expr rename_expr c, List.map rename_stmt th,
           List.map rename_stmt el)
    | Sfor (h, body) ->
      let h' =
        { index = Option.value (List.assoc_opt h.index mapping) ~default:h.index;
          init = map_expr rename_expr h.init;
          cond_op = h.cond_op;
          bound = map_expr rename_expr h.bound;
          step = map_expr rename_expr h.step }
      in
      Sfor (h', List.map rename_stmt body)
    | Sreturn e -> Sreturn (Option.map (map_expr rename_expr) e)
    | Sexpr e -> Sexpr (map_expr rename_expr e)
  in
  mapping, List.map rename_stmt callee.body

(* Replace [return e] with an assignment to [result] (callee bodies must be
   single-exit: a return only as the last statement, which the C subset's
   kernels satisfy). *)
let rec replace_returns result stmts =
  List.map
    (fun s ->
      match s with
      | Sreturn (Some e) -> Sassign (Lvar result, e)
      | Sreturn None -> Sexpr (Const 0L)
      | Sif (c, th, el) ->
        Sif (c, replace_returns result th, replace_returns result el)
      | Sfor (h, body) -> Sfor (h, replace_returns result body)
      | Sdecl _ | Sassign _ | Sexpr _ -> s)
    stmts

let returns_anywhere_but_last stmts =
  let rec check = function
    | [] -> false
    | [ Sreturn _ ] -> false
    | Sreturn _ :: _ -> true
    | Sif (_, th, el) :: rest ->
      (* returns inside branches are fine only if nothing follows *)
      let branch_returns =
        List.exists (function Sreturn _ -> true | _ -> false) (th @ el)
      in
      (branch_returns && rest <> []) || check rest
    | Sfor (_, body) :: rest ->
      List.exists (function Sreturn _ -> true | _ -> false) body || check rest
    | (Sdecl _ | Sassign _ | Sexpr _) :: rest -> check rest
  in
  check stmts

(** Inline every call to a function defined in [prog] inside [f]'s body.
    Calls appear only in expression position; each becomes a block of
    [param decls; inlined body; result read]. Nested calls are handled by
    iterating to fixpoint (recursion is rejected upstream by Semant). *)
let inline_calls (prog : program) (f : func) : func =
  let find_callee name =
    List.find_opt (fun g -> String.equal g.fname name) prog.funcs
  in
  let rename_counter = Roccc_util.Id_gen.create () in
  let result_counter = Roccc_util.Id_gen.create () in
  (* Rewrite one statement list; hoists call setups before each statement. *)
  let rec rewrite_stmts stmts = List.concat_map rewrite_stmt stmts
  and rewrite_stmt s : stmt list =
    match s with
    | Sdecl (t, n, Some e) ->
      let pre, e' = extract_calls e in
      pre @ [ Sdecl (t, n, Some e') ]
    | Sdecl (_, _, None) -> [ s ]
    | Sassign (lv, e) ->
      let pre_idx, lv' =
        match lv with
        | Lvar _ | Lderef _ -> [], lv
        | Lindex (a, idx) ->
          let pres, idx' = List.split (List.map extract_calls idx) in
          List.concat pres, Lindex (a, idx')
      in
      let pre, e' = extract_calls e in
      pre_idx @ pre @ [ Sassign (lv', e') ]
    | Sif (c, th, el) ->
      let pre, c' = extract_calls c in
      pre @ [ Sif (c', rewrite_stmts th, rewrite_stmts el) ]
    | Sfor (h, body) -> [ Sfor (h, rewrite_stmts body) ]
    | Sreturn (Some e) ->
      let pre, e' = extract_calls e in
      pre @ [ Sreturn (Some e') ]
    | Sreturn None -> [ s ]
    | Sexpr (Call (g, _)) when is_intrinsic g -> [ s ]
    | Sexpr e ->
      let pre, e' = extract_calls e in
      pre @ [ Sexpr e' ]
  (* Pull user-function calls out of an expression, producing setup
     statements and the residual expression. *)
  and extract_calls (e : expr) : stmt list * expr =
    let pre = ref [] in
    let rec walk e =
      match e with
      | Const _ | Var _ | Deref _ -> e
      | Index (a, idx) -> Index (a, List.map walk idx)
      | Binop (op, a, b) ->
        let a' = walk a in
        let b' = walk b in
        Binop (op, a', b')
      | Unop (op, a) -> Unop (op, walk a)
      | Cast (k, a) -> Cast (k, walk a)
      | Call (g, args) when is_intrinsic g -> Call (g, List.map walk args)
      | Call (g, args) -> (
        match find_callee g with
        | None -> Call (g, List.map walk args)  (* LUT or external: keep *)
        | Some callee ->
          let args' = List.map walk args in
          if returns_anywhere_but_last callee.body then
            Diag.failf "inlining"
              "cannot inline %s: return is not the final statement" g;
          let mapping, body = freshen_body rename_counter callee in
          (* Scalar formals consume the call arguments in order; pointer
             formals (the paper's multiple-return-value outputs) receive no
             argument and become plain scalar locals, so the freshened
             body's writes through them stay bound after inlining — the
             values die at the call site and DCE removes the dead stores. *)
          let param_decls =
            let rec bind params args =
              match params, args with
              | [], [] -> []
              | ({ ptype = Tint _; _ } as p) :: ps, a :: rest ->
                Sdecl (p.ptype, List.assoc p.pname mapping, Some a)
                :: bind ps rest
              | { ptype = Tptr k; pname; _ } :: ps, rest ->
                Sdecl (Tint k, List.assoc pname mapping, None) :: bind ps rest
              | { ptype = Tarray _ | Tvoid; pname; _ } :: _, _ ->
                Diag.failf "inlining"
                  "cannot inline %s: unsupported parameter %s" g pname
              | [], _ :: _ | { ptype = Tint _; _ } :: _, [] ->
                Diag.failf "inlining"
                  "call to %s: arity mismatch during inlining" g
            in
            bind callee.params args'
          in
          let ret_kind =
            match callee.ret with
            | Tint k -> k
            | Tvoid | Tarray _ | Tptr _ ->
              Diag.failf "inlining" "cannot inline %s: non-integer return" g
          in
          let result =
            Printf.sprintf "%s_ret%d" g (Roccc_util.Id_gen.fresh result_counter)
          in
          let body = replace_returns result body in
          pre :=
            !pre
            @ param_decls
            @ [ Sdecl (Tint ret_kind, result, None) ]
            @ rewrite_stmts body;
          Var result)
    in
    let e' = walk e in
    !pre, e'
  in
  let rec fix body n =
    let body' = rewrite_stmts body in
    if n = 0 || body' = body then body' else fix body' (n - 1)
  in
  { f with body = fix f.body 8 }
