(** Recursive-descent parser for the ROCCC C subset. *)

module Diag = Roccc_util.Diag

type state = { mutable toks : Lexer.located list }

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> { Lexer.tok = Lexer.EOF; line = 0; col = 0 }

let peek2 st =
  match st.toks with
  | _ :: t :: _ -> Some t.Lexer.tok
  | _ :: [] | [] -> None

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let error_at (t : Lexer.located) msg =
  Diag.failf ~pos:(t.line, t.col) "parse error" "%s" msg

let expect st tok =
  let t = peek st in
  if t.tok = tok then advance st
  else
    error_at t
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name t.tok))

let expect_ident st =
  let t = peek st in
  match t.tok with
  | Lexer.IDENT name -> advance st; name
  | other -> error_at t ("expected identifier but found " ^ Lexer.token_name other)

(* ------------------------------------------------------------------ *)
(* Type names                                                          *)
(* ------------------------------------------------------------------ *)

(* Recognize [intN] / [uintN] / [intN_t] / [uintN_t] identifiers. *)
let sized_int_of_ident name : Ast.ikind option =
  let strip_t s =
    if String.length s > 2 && String.sub s (String.length s - 2) 2 = "_t" then
      String.sub s 0 (String.length s - 2)
    else s
  in
  let name = strip_t name in
  let parse ~signed prefix =
    let n = String.length prefix in
    if String.length name > n && String.sub name 0 n = prefix then
      match int_of_string_opt (String.sub name n (String.length name - n)) with
      | Some bits when bits >= 1 && bits <= 64 -> Some { Ast.signed; bits }
      | Some _ | None -> None
    else None
  in
  match parse ~signed:false "uint" with
  | Some k -> Some k
  | None -> parse ~signed:true "int"

(* Does the upcoming token sequence start a type name? *)
let starts_type st =
  match (peek st).tok with
  | Lexer.KW_VOID | Lexer.KW_CONST | Lexer.KW_INT | Lexer.KW_UNSIGNED
  | Lexer.KW_SIGNED | Lexer.KW_CHAR | Lexer.KW_SHORT | Lexer.KW_LONG -> true
  | Lexer.IDENT name -> Option.is_some (sized_int_of_ident name)
  | _ -> false

(* Parse a base type: [void] or an integer kind. Consumes [const]. *)
let parse_base_type st : Ast.ctype =
  let t = peek st in
  (* skip any leading const *)
  let rec skip_const () =
    if (peek st).tok = Lexer.KW_CONST then (advance st; skip_const ())
  in
  skip_const ();
  let t0 = peek st in
  match t0.tok with
  | Lexer.KW_VOID -> advance st; Ast.Tvoid
  | Lexer.IDENT name -> (
    match sized_int_of_ident name with
    | Some k -> advance st; Ast.Tint k
    | None -> error_at t0 ("expected a type but found identifier " ^ name))
  | Lexer.KW_INT | Lexer.KW_UNSIGNED | Lexer.KW_SIGNED | Lexer.KW_CHAR
  | Lexer.KW_SHORT | Lexer.KW_LONG ->
    (* Collect the specifier words: signed/unsigned then char/short/int/long. *)
    let signed = ref true in
    let bits = ref 32 in
    let saw_any = ref false in
    let rec loop () =
      match (peek st).tok with
      | Lexer.KW_SIGNED -> advance st; signed := true; saw_any := true; loop ()
      | Lexer.KW_UNSIGNED -> advance st; signed := false; saw_any := true; loop ()
      | Lexer.KW_CHAR -> advance st; bits := 8; saw_any := true; loop ()
      | Lexer.KW_SHORT ->
        advance st;
        bits := 16;
        saw_any := true;
        (* allow "short int" *)
        if (peek st).tok = Lexer.KW_INT then advance st;
        loop ()
      | Lexer.KW_LONG ->
        advance st;
        bits := 32;
        saw_any := true;
        if (peek st).tok = Lexer.KW_INT then advance st;
        loop ()
      | Lexer.KW_INT -> advance st; bits := 32; saw_any := true; loop ()
      | _ -> ()
    in
    loop ();
    if not !saw_any then error_at t ("expected a type");
    Ast.Tint { Ast.signed = !signed; bits = !bits }
  | other -> error_at t0 ("expected a type but found " ^ Lexer.token_name other)

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing                                    *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : Ast.expr = parse_logical_or st

and parse_logical_or st =
  let rec loop lhs =
    if (peek st).tok = Lexer.OROR then (
      advance st;
      let rhs = parse_logical_and st in
      loop (Ast.Binop (Ast.Lor, lhs, rhs)))
    else lhs
  in
  loop (parse_logical_and st)

and parse_logical_and st =
  let rec loop lhs =
    if (peek st).tok = Lexer.ANDAND then (
      advance st;
      let rhs = parse_bitor st in
      loop (Ast.Binop (Ast.Land, lhs, rhs)))
    else lhs
  in
  loop (parse_bitor st)

and parse_bitor st =
  let rec loop lhs =
    if (peek st).tok = Lexer.PIPE then (
      advance st;
      loop (Ast.Binop (Ast.Bor, lhs, parse_bitxor st)))
    else lhs
  in
  loop (parse_bitxor st)

and parse_bitxor st =
  let rec loop lhs =
    if (peek st).tok = Lexer.CARET then (
      advance st;
      loop (Ast.Binop (Ast.Bxor, lhs, parse_bitand st)))
    else lhs
  in
  loop (parse_bitand st)

and parse_bitand st =
  let rec loop lhs =
    if (peek st).tok = Lexer.AMP then (
      advance st;
      loop (Ast.Binop (Ast.Band, lhs, parse_equality st)))
    else lhs
  in
  loop (parse_equality st)

and parse_equality st =
  let rec loop lhs =
    match (peek st).tok with
    | Lexer.EQEQ ->
      advance st;
      loop (Ast.Binop (Ast.Eq, lhs, parse_relational st))
    | Lexer.NE ->
      advance st;
      loop (Ast.Binop (Ast.Ne, lhs, parse_relational st))
    | _ -> lhs
  in
  loop (parse_relational st)

and parse_relational st =
  let rec loop lhs =
    match (peek st).tok with
    | Lexer.LT -> advance st; loop (Ast.Binop (Ast.Lt, lhs, parse_shift st))
    | Lexer.LE -> advance st; loop (Ast.Binop (Ast.Le, lhs, parse_shift st))
    | Lexer.GT -> advance st; loop (Ast.Binop (Ast.Gt, lhs, parse_shift st))
    | Lexer.GE -> advance st; loop (Ast.Binop (Ast.Ge, lhs, parse_shift st))
    | _ -> lhs
  in
  loop (parse_shift st)

and parse_shift st =
  let rec loop lhs =
    match (peek st).tok with
    | Lexer.SHL -> advance st; loop (Ast.Binop (Ast.Shl, lhs, parse_additive st))
    | Lexer.SHR -> advance st; loop (Ast.Binop (Ast.Shr, lhs, parse_additive st))
    | _ -> lhs
  in
  loop (parse_additive st)

and parse_additive st =
  let rec loop lhs =
    match (peek st).tok with
    | Lexer.PLUS ->
      advance st;
      loop (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    | Lexer.MINUS ->
      advance st;
      loop (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    match (peek st).tok with
    | Lexer.STAR -> advance st; loop (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    | Lexer.SLASH -> advance st; loop (Ast.Binop (Ast.Div, lhs, parse_unary st))
    | Lexer.PERCENT -> advance st; loop (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  let t = peek st in
  match t.tok with
  | Lexer.MINUS -> advance st; Ast.Unop (Ast.Neg, parse_unary st)
  | Lexer.TILDE -> advance st; Ast.Unop (Ast.Bnot, parse_unary st)
  | Lexer.BANG -> advance st; Ast.Unop (Ast.Lnot, parse_unary st)
  | Lexer.PLUS -> advance st; parse_unary st
  | Lexer.STAR ->
    advance st;
    let name = expect_ident st in
    Ast.Deref name
  | Lexer.LPAREN when cast_ahead st -> (
    advance st;
    let ty = parse_base_type st in
    expect st Lexer.RPAREN;
    let inner = parse_unary st in
    match ty with
    | Ast.Tint k -> Ast.Cast (k, inner)
    | Ast.Tvoid | Ast.Tarray _ | Ast.Tptr _ ->
      error_at t "only casts to integer types are supported")
  | _ -> parse_postfix st

(* Is "( type )" coming up? Lookahead for cast vs. parenthesized expr. *)
and cast_ahead st =
  match peek2 st with
  | Some
      ( Lexer.KW_VOID | Lexer.KW_CONST | Lexer.KW_INT | Lexer.KW_UNSIGNED
      | Lexer.KW_SIGNED | Lexer.KW_CHAR | Lexer.KW_SHORT | Lexer.KW_LONG ) ->
    true
  | Some (Lexer.IDENT name) -> Option.is_some (sized_int_of_ident name)
  | Some _ | None -> false

and parse_postfix st =
  let t = peek st in
  match t.tok with
  | Lexer.INT_LIT v -> advance st; Ast.Const v
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name -> (
    advance st;
    match (peek st).tok with
    | Lexer.LPAREN ->
      advance st;
      let args =
        if (peek st).tok = Lexer.RPAREN then []
        else
          let rec loop acc =
            let e = parse_expr st in
            if (peek st).tok = Lexer.COMMA then (advance st; loop (e :: acc))
            else List.rev (e :: acc)
          in
          loop []
      in
      expect st Lexer.RPAREN;
      Ast.Call (name, args)
    | Lexer.LBRACKET ->
      let rec dims acc =
        if (peek st).tok = Lexer.LBRACKET then (
          advance st;
          let e = parse_expr st in
          expect st Lexer.RBRACKET;
          dims (e :: acc))
        else List.rev acc
      in
      Ast.Index (name, dims [])
    | _ -> Ast.Var name)
  | Lexer.QUESTION ->
    error_at t "ternary ?: is not supported; use an if/else statement"
  | other -> error_at t ("expected an expression but found " ^ Lexer.token_name other)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_lvalue st : Ast.lvalue =
  let t = peek st in
  match t.tok with
  | Lexer.STAR ->
    advance st;
    Ast.Lderef (expect_ident st)
  | Lexer.IDENT name -> (
    advance st;
    if (peek st).tok = Lexer.LBRACKET then
      let rec dims acc =
        if (peek st).tok = Lexer.LBRACKET then (
          advance st;
          let e = parse_expr st in
          expect st Lexer.RBRACKET;
          dims (e :: acc))
        else List.rev acc
      in
      Ast.Lindex (name, dims [])
    else Ast.Lvar name)
  | other -> error_at t ("expected an lvalue but found " ^ Lexer.token_name other)

(* Array dimensions after a declared name: [N] or [N][M]. *)
let parse_decl_dims st =
  let rec loop acc =
    if (peek st).tok = Lexer.LBRACKET then (
      advance st;
      let t = peek st in
      match t.tok with
      | Lexer.INT_LIT v ->
        advance st;
        expect st Lexer.RBRACKET;
        loop (Int64.to_int v :: acc)
      | other ->
        error_at t
          ("array dimensions must be integer literals, found "
          ^ Lexer.token_name other))
    else List.rev acc
  in
  loop []

(* Parse "index = e; index OP e; index-update" loop header after 'for ('. *)
let parse_for_header st : Ast.for_header =
  let t0 = peek st in
  (* optional "int" in the init clause: for (int i = 0; ...) *)
  if starts_type st then ignore (parse_base_type st);
  let index = expect_ident st in
  expect st Lexer.ASSIGN;
  let init = parse_expr st in
  expect st Lexer.SEMI;
  let cond_lhs = expect_ident st in
  if not (String.equal cond_lhs index) then
    error_at t0
      (Printf.sprintf "for-loop condition must test the index %s, found %s"
         index cond_lhs);
  let cond_op =
    let t = peek st in
    match t.tok with
    | Lexer.LT -> advance st; Ast.Lt
    | Lexer.LE -> advance st; Ast.Le
    | Lexer.GT -> advance st; Ast.Gt
    | Lexer.GE -> advance st; Ast.Ge
    | Lexer.NE -> advance st; Ast.Ne
    | other ->
      error_at t ("expected a comparison in for-loop, found " ^ Lexer.token_name other)
  in
  let bound = parse_expr st in
  expect st Lexer.SEMI;
  (* Update forms: i++ | ++i | i-- | i += k | i -= k | i = i + k | i = i - k *)
  let step =
    let t = peek st in
    match t.tok with
    | Lexer.PLUSPLUS ->
      advance st;
      let _ = expect_ident st in
      Ast.const 1
    | Lexer.MINUSMINUS ->
      advance st;
      let _ = expect_ident st in
      Ast.Unop (Ast.Neg, Ast.const 1)
    | Lexer.IDENT name ->
      if not (String.equal name index) then
        error_at t ("for-loop update must assign the index " ^ index);
      advance st;
      (match (peek st).tok with
      | Lexer.PLUSPLUS -> advance st; Ast.const 1
      | Lexer.MINUSMINUS -> advance st; Ast.Unop (Ast.Neg, Ast.const 1)
      | Lexer.PLUS_ASSIGN -> advance st; parse_expr st
      | Lexer.MINUS_ASSIGN ->
        advance st;
        Ast.Unop (Ast.Neg, parse_expr st)
      | Lexer.ASSIGN -> (
        advance st;
        let rhs = parse_expr st in
        match rhs with
        | Ast.Binop (Ast.Add, Ast.Var v, step) when String.equal v index -> step
        | Ast.Binop (Ast.Add, step, Ast.Var v) when String.equal v index -> step
        | Ast.Binop (Ast.Sub, Ast.Var v, step) when String.equal v index ->
          Ast.Unop (Ast.Neg, step)
        | _ ->
          error_at t
            (Printf.sprintf
               "for-loop update must have the form %s = %s +/- step" index index))
      | other ->
        error_at t ("unsupported for-loop update " ^ Lexer.token_name other))
    | other -> error_at t ("unsupported for-loop update " ^ Lexer.token_name other)
  in
  { Ast.index; init; cond_op; bound; step }

let rec parse_stmt st : Ast.stmt list =
  let t = peek st in
  match t.tok with
  | Lexer.SEMI -> advance st; []
  | Lexer.KW_RETURN ->
    advance st;
    if (peek st).tok = Lexer.SEMI then (advance st; [ Ast.Sreturn None ])
    else
      let e = parse_expr st in
      expect st Lexer.SEMI;
      [ Ast.Sreturn (Some e) ]
  | Lexer.KW_IF ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let then_branch = parse_block_or_stmt st in
    let else_branch =
      if (peek st).tok = Lexer.KW_ELSE then (advance st; parse_block_or_stmt st)
      else []
    in
    [ Ast.Sif (cond, then_branch, else_branch) ]
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN;
    let header = parse_for_header st in
    expect st Lexer.RPAREN;
    let body = parse_block_or_stmt st in
    [ Ast.Sfor (header, body) ]
  | Lexer.LBRACE -> parse_block st
  | _ when starts_type st ->
    (* local declaration(s): type a = e, b, c[4]; *)
    let base = parse_base_type st in
    let elem_kind =
      match base with
      | Ast.Tint k -> k
      | Ast.Tvoid | Ast.Tarray _ | Ast.Tptr _ ->
        error_at t "local declarations must have integer type"
    in
    let rec declarators acc =
      let name = expect_ident st in
      let dims = parse_decl_dims st in
      let ty = if dims = [] then Ast.Tint elem_kind else Ast.Tarray (elem_kind, dims) in
      let init =
        if (peek st).tok = Lexer.ASSIGN then (advance st; Some (parse_expr st))
        else None
      in
      let acc = Ast.Sdecl (ty, name, init) :: acc in
      if (peek st).tok = Lexer.COMMA then (advance st; declarators acc)
      else (expect st Lexer.SEMI; List.rev acc)
    in
    declarators []
  | _ ->
    (* assignment or expression statement *)
    parse_assign_or_expr st

and parse_assign_or_expr st =
  let t = peek st in
  (* A call statement like ROCCC_store2next(sum, v); *)
  match t.tok, peek2 st with
  | Lexer.IDENT _, Some Lexer.LPAREN ->
    let e = parse_expr st in
    expect st Lexer.SEMI;
    [ Ast.Sexpr e ]
  | _ ->
    let lv = parse_lvalue st in
    let t1 = peek st in
    let stmt =
      match t1.tok with
      | Lexer.ASSIGN ->
        advance st;
        Ast.Sassign (lv, parse_expr st)
      | Lexer.PLUS_ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        Ast.Sassign (lv, Ast.Binop (Ast.Add, lvalue_expr lv, rhs))
      | Lexer.MINUS_ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        Ast.Sassign (lv, Ast.Binop (Ast.Sub, lvalue_expr lv, rhs))
      | Lexer.PLUSPLUS ->
        advance st;
        Ast.Sassign (lv, Ast.Binop (Ast.Add, lvalue_expr lv, Ast.const 1))
      | Lexer.MINUSMINUS ->
        advance st;
        Ast.Sassign (lv, Ast.Binop (Ast.Sub, lvalue_expr lv, Ast.const 1))
      | other ->
        error_at t1 ("expected an assignment, found " ^ Lexer.token_name other)
    in
    expect st Lexer.SEMI;
    [ stmt ]

and lvalue_expr = function
  | Ast.Lvar x -> Ast.Var x
  | Ast.Lindex (x, idx) -> Ast.Index (x, idx)
  | Ast.Lderef x -> Ast.Deref x

and parse_block st : Ast.stmt list =
  expect st Lexer.LBRACE;
  let rec loop acc =
    if (peek st).tok = Lexer.RBRACE then (advance st; List.rev acc)
    else if (peek st).tok = Lexer.EOF then
      error_at (peek st) "unexpected end of input inside block"
    else loop (List.rev_append (parse_stmt st) acc)
  in
  loop []

and parse_block_or_stmt st =
  if (peek st).tok = Lexer.LBRACE then parse_block st else parse_stmt st

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_param st : Ast.param =
  let base = parse_base_type st in
  let elem_kind =
    match base with
    | Ast.Tint k -> k
    | Ast.Tvoid | Ast.Tarray _ | Ast.Tptr _ ->
      error_at (peek st) "parameters must have integer (or pointer) type"
  in
  let is_ptr = (peek st).tok = Lexer.STAR in
  if is_ptr then advance st;
  let pname = expect_ident st in
  let dims = parse_decl_dims st in
  let ptype =
    if is_ptr then Ast.Tptr elem_kind
    else if dims = [] then Ast.Tint elem_kind
    else Ast.Tarray (elem_kind, dims)
  in
  { Ast.pname; ptype }

let parse_program (src : string) : Ast.program =
  let toks = Lexer.tokenize src in
  let st = { toks } in
  let globals = ref [] in
  let funcs = ref [] in
  let pipelines = ref [] in
  let rec loop () =
    if (peek st).tok = Lexer.EOF then ()
    else if
      (* top-level composition form (process networks):
         pipeline NAME = stageA -> stageB -> ... ; *)
      peek st |> fun t ->
      t.tok = Lexer.IDENT "pipeline"
      && (match peek2 st with Some (Lexer.IDENT _) -> true | _ -> false)
    then begin
      advance st;
      let name = expect_ident st in
      expect st Lexer.ASSIGN;
      let rec stages acc =
        let s = expect_ident st in
        if (peek st).tok = Lexer.ARROW then (advance st; stages (s :: acc))
        else List.rev (s :: acc)
      in
      let sts = stages [] in
      if List.length sts < 2 then
        error_at (peek st) "a pipeline needs at least two stages";
      expect st Lexer.SEMI;
      pipelines := { Ast.pl_name = name; pl_stages = sts } :: !pipelines;
      loop ()
    end
    else begin
      let ret = parse_base_type st in
      let name = expect_ident st in
      match (peek st).tok with
      | Lexer.LPAREN ->
        (* function definition *)
        advance st;
        let params =
          if (peek st).tok = Lexer.RPAREN then []
          else if (peek st).tok = Lexer.KW_VOID && peek2 st = Some Lexer.RPAREN
          then (advance st; [])
          else
            let rec ps acc =
              let p = parse_param st in
              if (peek st).tok = Lexer.COMMA then (advance st; ps (p :: acc))
              else List.rev (p :: acc)
            in
            ps []
        in
        expect st Lexer.RPAREN;
        let body = parse_block st in
        funcs := { Ast.fname = name; ret; params; body } :: !funcs;
        loop ()
      | _ ->
        (* global variable(s) *)
        let elem_kind =
          match ret with
          | Ast.Tint k -> k
          | Ast.Tvoid | Ast.Tarray _ | Ast.Tptr _ ->
            error_at (peek st) "global declarations must have integer type"
        in
        let rec declarators name =
          let dims = parse_decl_dims st in
          let gtype =
            if dims = [] then Ast.Tint elem_kind
            else Ast.Tarray (elem_kind, dims)
          in
          let ginit =
            if (peek st).tok = Lexer.ASSIGN then (advance st; Some (parse_expr st))
            else None
          in
          globals := { Ast.gtype; gname = name; ginit } :: !globals;
          if (peek st).tok = Lexer.COMMA then (
            advance st;
            declarators (expect_ident st))
          else expect st Lexer.SEMI
        in
        declarators name;
        loop ()
    end
  in
  loop ();
  { Ast.globals = List.rev !globals;
    funcs = List.rev !funcs;
    pipelines = List.rev !pipelines }
