(** Semantic analysis: symbol resolution, the ROCCC C-subset restrictions
    (no recursion, statically analyzable pointers, literal array dims), and
    expression typing used by the VM lowering. *)

open Ast
module Diag = Roccc_util.Diag

(** Signature of a lookup-table function: input kind, output kind. *)
type lut_signature = { lut_in : ikind; lut_out : ikind }

type env = {
  vars : (string, ctype) Hashtbl.t;  (** in-scope variables *)
  functions : (string, func) Hashtbl.t;
  luts : (string, lut_signature) Hashtbl.t;
}

let create_env ?(luts = []) (prog : program) : env =
  let vars = Hashtbl.create 16 in
  let functions = Hashtbl.create 4 in
  let lut_tbl = Hashtbl.create 4 in
  List.iter (fun g -> Hashtbl.replace vars g.gname g.gtype) prog.globals;
  List.iter (fun f -> Hashtbl.replace functions f.fname f) prog.funcs;
  List.iter (fun (name, s) -> Hashtbl.replace lut_tbl name s) luts;
  { vars; functions; luts = lut_tbl }

let var_type env name =
  match Hashtbl.find_opt env.vars name with
  | Some t -> t
  | None -> Diag.failf "semantic error" "undeclared variable %s" name

(* ------------------------------------------------------------------ *)
(* Expression typing                                                   *)
(* ------------------------------------------------------------------ *)

(* Usual arithmetic conversion between two integer kinds: promote to the
   wider width; the result is unsigned if either operand of that width is. *)
let join_kinds (a : ikind) (b : ikind) : ikind =
  let bits = max a.bits b.bits in
  let bits = max bits 32 in  (* C integer promotion to at least int *)
  let signed =
    if a.bits = b.bits then a.signed && b.signed
    else if a.bits > b.bits then a.signed
    else b.signed
  in
  { signed; bits }

let rec type_of_expr env (e : expr) : ikind =
  match e with
  | Const v ->
    if Int64.compare v 0L < 0 then
      (* negative literals are signed, widening past int only when the
         magnitude demands it *)
      { signed = true; bits = max 32 (Roccc_util.Bits.bits_for_signed v) }
    else if Int64.compare v 2147483647L <= 0 then int32_kind
    else { signed = false; bits = Roccc_util.Bits.bits_for_unsigned v }
  | Var x -> (
    match var_type env x with
    | Tint k -> k
    | Tarray _ -> Diag.failf "semantic error" "array %s used without an index" x
    | Tptr _ ->
      Diag.failf "semantic error" "pointer %s read without dereference" x
    | Tvoid -> Diag.failf "semantic error" "void variable %s" x)
  | Deref x -> (
    match var_type env x with
    | Tptr k -> k
    | Tint _ | Tarray _ | Tvoid ->
      Diag.failf "semantic error" "*%s: %s is not a pointer" x x)
  | Index (a, idx) -> (
    match var_type env a with
    | Tarray (k, dims) ->
      if List.length idx <> List.length dims then
        Diag.failf "semantic error"
          "array %s has %d dimension(s) but %d index(es) given" a
          (List.length dims) (List.length idx);
      k
    | Tint _ | Tptr _ | Tvoid ->
      Diag.failf "semantic error" "%s is not an array" a)
  | Unop (Lnot, _) -> bool_kind
  | Unop ((Neg | Bnot), a) -> join_kinds (type_of_expr env a) int32_kind
  | Cast (k, _) -> k
  | Binop (op, a, b) ->
    if is_comparison op || is_logical op then bool_kind
    else join_kinds (type_of_expr env a) (type_of_expr env b)
  | Call (f, args) ->
    if String.equal f roccc_load_prev then (
      match args with
      | [ Var x ] -> (
        match var_type env x with
        | Tint k -> k
        | Tarray _ | Tptr _ | Tvoid ->
          Diag.failf "semantic error"
            "%s expects a scalar variable" roccc_load_prev)
      | _ ->
        Diag.failf "semantic error"
          "%s expects exactly one variable argument" roccc_load_prev)
    else if String.equal f roccc_store2next then
      Diag.failf "semantic error"
        "%s is a statement, not an expression" roccc_store2next
    else (
      match Hashtbl.find_opt env.luts f with
      | Some s -> s.lut_out
      | None -> (
        match Hashtbl.find_opt env.functions f with
        | Some callee -> (
          match callee.ret with
          | Tint k -> k
          | Tvoid ->
            Diag.failf "semantic error"
              "void function %s used as an expression" f
          | Tarray _ | Tptr _ ->
            Diag.failf "semantic error"
              "function %s has unsupported return type" f)
        | None -> Diag.failf "semantic error" "call to unknown function %s" f))

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let rec check_expr env (e : expr) : unit =
  ignore (type_of_expr env e);
  match e with
  | Const _ | Var _ | Deref _ -> ()
  | Index (_, idx) -> List.iter (check_expr env) idx
  | Binop (_, a, b) -> check_expr env a; check_expr env b
  | Unop (_, a) | Cast (_, a) -> check_expr env a
  | Call (f, args) ->
    if String.equal f roccc_load_prev then ()
    else (
      List.iter (check_expr env) args;
      match Hashtbl.find_opt env.functions f with
      | Some callee ->
        let n_scalar =
          List.length (List.filter (fun p ->
            match p.ptype with Tint _ -> true | Tarray _ | Tptr _ | Tvoid -> false)
            callee.params)
        in
        if List.length args <> n_scalar then
          Diag.failf "semantic error"
            "function %s expects %d scalar argument(s), got %d" f n_scalar
            (List.length args)
      | None ->
        if Hashtbl.mem env.luts f then (
          if List.length args <> 1 then
            Diag.failf "semantic error"
              "lookup table %s expects exactly one argument" f)
        else ())

let check_lvalue env (lv : lvalue) : unit =
  match lv with
  | Lvar x -> (
    match var_type env x with
    | Tint _ -> ()
    | Tarray _ -> Diag.failf "semantic error" "cannot assign whole array %s" x
    | Tptr _ ->
      Diag.failf "semantic error"
        "cannot reassign pointer %s (write through *%s)" x x
    | Tvoid -> Diag.failf "semantic error" "cannot assign void variable %s" x)
  | Lindex (a, idx) -> (
    List.iter (check_expr env) idx;
    match var_type env a with
    | Tarray (_, dims) ->
      if List.length idx <> List.length dims then
        Diag.failf "semantic error"
          "array %s has %d dimension(s) but %d index(es) given" a
          (List.length dims) (List.length idx)
    | Tint _ | Tptr _ | Tvoid ->
      Diag.failf "semantic error" "%s is not an array" a)
  | Lderef x -> (
    match var_type env x with
    | Tptr _ -> ()
    | Tint _ | Tarray _ | Tvoid ->
      Diag.failf "semantic error" "*%s: %s is not a pointer" x x)

(* A block sees the names of its enclosing scopes; what it declares ends
   with it. *)
let block env = { env with vars = Hashtbl.copy env.vars }

(* The interpreter and the lowering keep one variable per name per
   function, so a declaration may not shadow a name already visible (a
   global, a parameter, or a local of this or an enclosing block).
   Sibling blocks may each declare the same name. *)
let rec check_stmt ~fname env (s : stmt) : unit =
  match s with
  | Sdecl (t, name, init) ->
    (match t with
    | Tint _ | Tarray _ -> ()
    | Tptr _ ->
      Diag.failf "semantic error" "local pointer %s is not allowed" name
    | Tvoid -> Diag.failf "semantic error" "void local %s" name);
    if Hashtbl.mem env.vars name then
      Diag.failf "semantic error"
        "function %s: declaration of %s shadows the %s already in scope"
        fname name name;
    Hashtbl.replace env.vars name t;
    Option.iter (check_expr env) init
  | Sassign (lv, e) ->
    check_lvalue env lv;
    check_expr env e
  | Sif (c, th, el) ->
    check_expr env c;
    List.iter (check_stmt ~fname (block env)) th;
    List.iter (check_stmt ~fname (block env)) el
  | Sfor (h, body) ->
    (* An undeclared loop index is an int of the enclosing scope. *)
    if not (Hashtbl.mem env.vars h.index) then
      Hashtbl.replace env.vars h.index (Tint int32_kind);
    check_expr env h.init;
    check_expr env h.bound;
    check_expr env h.step;
    List.iter (check_stmt ~fname (block env)) body
  | Sreturn e -> Option.iter (check_expr env) e
  | Sexpr e -> (
    match e with
    | Call (f, [ Var x; v ]) when String.equal f roccc_store2next ->
      (match var_type env x with
      | Tint _ -> ()
      | Tarray _ | Tptr _ | Tvoid ->
        Diag.failf "semantic error"
          "%s expects a scalar variable" roccc_store2next);
      check_expr env v
    | Call (f, _) when String.equal f roccc_store2next ->
      Diag.failf "semantic error"
        "%s expects (variable, value)" roccc_store2next
    | Call _ -> check_expr env e
    | Const _ | Var _ | Index _ | Deref _ | Binop _ | Unop _ | Cast _ ->
      Diag.failf "semantic error" "expression statement has no effect")

(* Recursion check over the user-function call graph (paper §2: no recursion). *)
let check_no_recursion (prog : program) : unit =
  let callees f =
    fold_stmts
      (fun acc _ -> acc)
      (fun acc e ->
        match e with
        | Call (g, _) when not (is_intrinsic g) -> g :: acc
        | Call _ | Const _ | Var _ | Index _ | Deref _ | Binop _ | Unop _
        | Cast _ -> acc)
      [] f.body
  in
  let defined = List.map (fun f -> f.fname) prog.funcs in
  let graph =
    List.map (fun f -> f.fname, List.filter (fun g -> List.mem g defined) (callees f))
      prog.funcs
  in
  (* DFS cycle detection with colors. *)
  let color = Hashtbl.create 8 in
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some `Done -> ()
    | Some `Active ->
      Diag.failf "semantic error"
        "recursion involving function %s is not allowed" name
    | None ->
      Hashtbl.replace color name `Active;
      (match List.assoc_opt name graph with
      | Some cs -> List.iter visit cs
      | None -> ());
      Hashtbl.replace color name `Done
  in
  List.iter (fun (name, _) -> visit name) graph

(** Check a whole program. Returns the populated environment on success;
    raises {!Roccc_util.Diag.Error} otherwise. *)
let check_program ?(luts = []) (prog : program) : env =
  let env = create_env ~luts prog in
  check_no_recursion prog;
  List.iter
    (fun g ->
      match g.gtype with
      | Tint _ | Tarray _ -> Option.iter (check_expr env) g.ginit
      | Tptr _ ->
        Diag.failf "semantic error" "global pointer %s is not allowed" g.gname
      | Tvoid -> Diag.failf "semantic error" "void global %s" g.gname)
    prog.globals;
  List.iter
    (fun f ->
      (* A function sees the globals, its parameters and its own locals:
         never a name another function declares. *)
      let fenv = block env in
      List.iter (fun p -> Hashtbl.replace fenv.vars p.pname p.ptype) f.params;
      List.iter (check_stmt ~fname:f.fname fenv) f.body)
    prog.funcs;
  env
