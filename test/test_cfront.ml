(* Tests for the C front-end: lexer, parser, semantic checks, interpreter. *)

open Roccc_cfront

let fir_source = Roccc_core.Kernels.paper_fir_source

let accumulator_source = Roccc_core.Kernels.paper_acc_source

let if_else_source = Roccc_core.Kernels.paper_if_else_source

let parse_func src = List.hd (Parser.parse_program src).Ast.funcs

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_simple () =
  let toks = Lexer.tokenize "int x = 42;" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  Alcotest.(check int) "token count" 6 (List.length kinds);
  match kinds with
  | [ Lexer.KW_INT; Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.INT_LIT 42L;
      Lexer.SEMI; Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "unexpected token sequence"

let test_lex_operators () =
  let toks = Lexer.tokenize "<< >> <= >= == != && || ++ -- += -=" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  Alcotest.(check bool) "ops" true
    (kinds
    = [ Lexer.SHL; Lexer.SHR; Lexer.LE; Lexer.GE; Lexer.EQEQ; Lexer.NE;
        Lexer.ANDAND; Lexer.OROR; Lexer.PLUSPLUS; Lexer.MINUSMINUS;
        Lexer.PLUS_ASSIGN; Lexer.MINUS_ASSIGN; Lexer.EOF ])

let test_lex_comments () =
  let toks = Lexer.tokenize "a /* block\ncomment */ b // line\nc" in
  let idents =
    List.filter_map
      (fun t -> match t.Lexer.tok with Lexer.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "idents" [ "a"; "b"; "c" ] idents

let test_lex_hex () =
  let toks = Lexer.tokenize "0xff 0x10 255u 42L" in
  let lits =
    List.filter_map
      (fun t -> match t.Lexer.tok with Lexer.INT_LIT v -> Some v | _ -> None)
      toks
  in
  Alcotest.(check (list int64)) "literals" [ 255L; 16L; 255L; 42L ] lits

let test_lex_error_position () =
  match Lexer.tokenize "int x;\n  @" with
  | exception
      Roccc_util.Diag.Error
        { where = "parse error"; pos = Some (line, col); _ } ->
    Alcotest.(check int) "line" 2 line;
    Alcotest.(check int) "col" 3 col
  | _ -> Alcotest.fail "expected a lexer error"

let test_lex_unterminated_comment () =
  match Lexer.tokenize "a /* never closed" with
  | exception Roccc_util.Diag.Error { where = "parse error"; msg; _ } ->
    Alcotest.(check bool) "message" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected a lexer error"

(* An over-wide literal used to crash tokenize with an assert failure;
   it must be a positioned parse error pointing at the literal. *)
let test_lex_integer_overflow () =
  let expect_error ~line ~col src =
    match Lexer.tokenize src with
    | exception
        Roccc_util.Diag.Error { where = "parse error"; pos = Some (l, c); msg }
      ->
      Alcotest.(check bool)
        ("out-of-range message: " ^ msg)
        true
        (String.length msg > 0);
      Alcotest.(check int) "line" line l;
      Alcotest.(check int) "col" col c
    | _ -> Alcotest.fail ("expected a lexer error for " ^ src)
  in
  (* 2^64 in decimal, and a 17-nibble hex literal: both one bit too wide *)
  expect_error ~line:1 ~col:9 "int x = 18446744073709551616;";
  expect_error ~line:2 ~col:9 "int y;\nint z = 0x10000000000000000;";
  expect_error ~line:1 ~col:9 "int w = 99999999999999999999999999;";
  (* the extremes that still fit must keep lexing *)
  match Lexer.tokenize "a = 0xFFFFFFFFFFFFFFFF; b = 9223372036854775807;" with
  | toks ->
    let lits =
      List.filter_map
        (fun t -> match t.Lexer.tok with Lexer.INT_LIT v -> Some v | _ -> None)
        toks
    in
    Alcotest.(check (list int64)) "boundary literals" [ -1L; Int64.max_int ]
      lits
  | exception Roccc_util.Diag.Error { where = "parse error"; msg; _ } ->
    Alcotest.fail ("boundary literal rejected: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_fir () =
  let prog = Parser.parse_program fir_source in
  Alcotest.(check int) "one function" 1 (List.length prog.Ast.funcs);
  let f = List.hd prog.Ast.funcs in
  Alcotest.(check string) "name" "fir" f.Ast.fname;
  Alcotest.(check int) "params" 2 (List.length f.Ast.params);
  match f.Ast.body with
  | [ Ast.Sdecl _; Ast.Sfor (h, body) ] ->
    Alcotest.(check string) "index" "i" h.Ast.index;
    Alcotest.(check bool) "bound is 17" true
      (Ast.equal_expr h.Ast.bound (Ast.const 17));
    Alcotest.(check int) "loop body" 1 (List.length body)
  | _ -> Alcotest.fail "unexpected FIR body shape"

let test_parse_precedence () =
  let f = parse_func "int f(int a, int b) { return a + b * 2; }" in
  match f.Ast.body with
  | [ Ast.Sreturn (Some (Ast.Binop (Ast.Add, Ast.Var "a",
        Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Const 2L)))) ] ->
    ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_parens_override () =
  let f = parse_func "int f(int a, int b) { return (a + b) * 2; }" in
  match f.Ast.body with
  | [ Ast.Sreturn (Some (Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, _, _), _))) ]
    ->
    ()
  | _ -> Alcotest.fail "parentheses not honored"

let test_parse_if_else () =
  let prog = Parser.parse_program if_else_source in
  let f = List.hd prog.Ast.funcs in
  let has_if =
    List.exists (function Ast.Sif _ -> true | _ -> false) f.Ast.body
  in
  Alcotest.(check bool) "has if" true has_if;
  (* pointer outputs parsed as Tptr *)
  let ptr_params =
    List.filter
      (fun p -> match p.Ast.ptype with Ast.Tptr _ -> true | _ -> false)
      f.Ast.params
  in
  Alcotest.(check int) "two pointer outputs" 2 (List.length ptr_params)

let test_parse_two_dim_array () =
  let f = parse_func
      "void t(int A[4][8]) { A[1][2] = A[0][0] + 1; }"
  in
  (match (List.hd f.Ast.params).Ast.ptype with
  | Ast.Tarray (_, [ 4; 8 ]) -> ()
  | _ -> Alcotest.fail "2-D array type");
  match f.Ast.body with
  | [ Ast.Sassign (Ast.Lindex ("A", [ _; _ ]), _) ] -> ()
  | _ -> Alcotest.fail "2-D assignment shape"

let test_parse_sized_ints () =
  let f = parse_func "uint12 m(int8 a, uint19 b) { return b; }" in
  (match f.Ast.ret with
  | Ast.Tint { Ast.signed = false; bits = 12 } -> ()
  | _ -> Alcotest.fail "uint12 return");
  match List.map (fun p -> p.Ast.ptype) f.Ast.params with
  | [ Ast.Tint { Ast.signed = true; bits = 8 };
      Ast.Tint { Ast.signed = false; bits = 19 } ] ->
    ()
  | _ -> Alcotest.fail "sized parameter kinds"

let test_parse_for_variants () =
  let parse_ok src =
    match parse_func src with
    | _ -> true
    | exception Roccc_util.Diag.Error { where = "parse error"; _ } -> false
  in
  Alcotest.(check bool) "i++" true
    (parse_ok "void f(int A[4]) { int i; for (i=0;i<4;i++) A[i]=i; }");
  Alcotest.(check bool) "i+=2" true
    (parse_ok "void f(int A[4]) { int i; for (i=0;i<4;i+=2) A[i]=i; }");
  Alcotest.(check bool) "i=i+1" true
    (parse_ok "void f(int A[4]) { int i; for (i=0;i<4;i=i+1) A[i]=i; }");
  Alcotest.(check bool) "countdown" true
    (parse_ok "void f(int A[4]) { int i; for (i=3;i>=0;i--) A[i]=i; }");
  Alcotest.(check bool) "int in header" true
    (parse_ok "void f(int A[4]) { for (int i=0;i<4;i++) A[i]=i; }")

let test_parse_compound_assign () =
  let f = parse_func "int f(int a) { a += 3; a -= 1; a++; return a; }" in
  Alcotest.(check int) "statements" 4 (List.length f.Ast.body)

let test_parse_errors () =
  let fails src =
    match Parser.parse_program src with
    | _ -> false
    | exception Roccc_util.Diag.Error { where = "parse error"; _ } -> true
  in
  Alcotest.(check bool) "missing semicolon" true (fails "int f() { return 1 }");
  Alcotest.(check bool) "bad for update" true
    (fails "void f(int A[4]) { int i, j; for (i=0;i<4;j++) A[i]=i; }");
  Alcotest.(check bool) "ternary rejected" true
    (fails "int f(int a) { return a ? 1 : 2; }");
  Alcotest.(check bool) "unclosed block" true (fails "int f() { return 1;")

let test_pretty_roundtrip () =
  (* Pretty-printing then reparsing yields a structurally equal program. *)
  let check_roundtrip src =
    let p1 = Parser.parse_program src in
    let printed = Pretty.program_to_string p1 in
    let p2 = Parser.parse_program printed in
    Alcotest.(check int) "same function count"
      (List.length p1.Ast.funcs) (List.length p2.Ast.funcs);
    List.iter2
      (fun (f1 : Ast.func) (f2 : Ast.func) ->
        Alcotest.(check string) "name" f1.Ast.fname f2.Ast.fname;
        Alcotest.(check int) "body size" (List.length f1.Ast.body)
          (List.length f2.Ast.body))
      p1.Ast.funcs p2.Ast.funcs
  in
  check_roundtrip fir_source;
  check_roundtrip accumulator_source;
  check_roundtrip if_else_source

(* ------------------------------------------------------------------ *)
(* Semantic checks                                                     *)
(* ------------------------------------------------------------------ *)

let semant_ok ?(luts = []) src =
  match Semant.check_program ~luts (Parser.parse_program src) with
  | _ -> true
  | exception Roccc_util.Diag.Error { where = "semantic error"; _ } -> false

let test_semant_accepts_kernels () =
  Alcotest.(check bool) "fir" true (semant_ok fir_source);
  Alcotest.(check bool) "accumulator" true (semant_ok accumulator_source);
  Alcotest.(check bool) "if_else" true (semant_ok if_else_source)

(* A function sees the globals, its parameters and its own locals: a local
   of the kernel that calls it is out of its scope, whichever comes
   first in the file. *)
let test_semant_function_scope () =
  let helper = "int g(int x) { return x + q; }\n" in
  let kernel =
    "void k(int A[8], int B[8]) {\n\
    \  int i; int q;\n\
    \  for (i = 0; i < 8; i = i + 1) { q = 1; B[i] = g(A[i]); }\n\
     }\n"
  in
  List.iter
    (fun (order, src) ->
      match Semant.check_program (Parser.parse_program src) with
      | _ -> Alcotest.failf "%s: accepted a caller's local" order
      | exception Roccc_util.Diag.Error { where = "semantic error"; msg; _ } ->
        Alcotest.(check string) order "undeclared variable q" msg)
    [ "helper first", helper ^ kernel; "kernel first", kernel ^ helper ];
  Alcotest.(check bool) "globals stay visible" true
    (semant_ok "int q; int g(int x) { return x + q; }")

(* A declaration ends with its block: an if branch or a for body. A loop
   index the program never declares belongs to the enclosing scope. *)
let test_semant_block_scope () =
  let rejects what src =
    match Semant.check_program (Parser.parse_program src) with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Roccc_util.Diag.Error { where = "semantic error"; msg; _ } ->
      Alcotest.(check string) what "undeclared variable t" msg
  in
  rejects "then-branch local read in the else-branch"
    "void k(int A[8], int B[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) {\n\
    \    if (A[i] > 3) { int t; t = A[i]; B[i] = t; } else { B[i] = t; }\n\
    \  }\n\
     }\n";
  rejects "loop-body local read after the loop"
    "int f(int A[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) { int t; t = A[i]; }\n\
    \  return t;\n\
     }\n";
  Alcotest.(check bool) "enclosing names stay visible" true
    (semant_ok
       "int f(int A[8]) {\n\
       \  int s; s = 0;\n\
       \  for (i = 0; i < 8; i = i + 1) { if (A[i] > 0) { s = s + A[i]; } }\n\
       \  return s + i;\n\
        }\n")

(* The interpreter and the lowering keep one variable per name per
   function, so a declaration that shadows a visible name is rejected;
   sibling blocks may still each declare the same name. *)
let test_semant_rejects_shadowing () =
  let rejects what src =
    match Semant.check_program (Parser.parse_program src) with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Roccc_util.Diag.Error { where = "semantic error"; msg; _ } ->
      Alcotest.(check string) what
        "function k: declaration of t shadows the t already in scope" msg
  in
  rejects "block local shadows a function local"
    "void k(int A[8], int B[8]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) {\n\
    \    int t; t = A[i];\n\
    \    if (A[i] > 3) { int8 t; t = 300; }\n\
    \    B[i] = t;\n\
    \  }\n\
     }\n";
  rejects "redeclared in the same block"
    "int k(int a) { int t; int t; t = a; return t; }";
  rejects "local shadows a parameter" "int k(int t) { int t; t = 1; return t; }";
  rejects "local shadows a global" "int t; int k(int a) { int t; t = a; return t; }";
  Alcotest.(check bool) "sibling branches each declare t" true
    (semant_ok
       "void k(int A[8], int B[8]) {\n\
       \  int i;\n\
       \  for (i = 0; i < 8; i = i + 1) {\n\
       \    if (A[i] > 3) { int t; t = A[i]; B[i] = t; }\n\
       \    else { int t; t = 0 - A[i]; B[i] = t; }\n\
       \  }\n\
        }\n");
  Alcotest.(check bool) "sequential loops each declare t" true
    (semant_ok
       "int k(int A[8]) {\n\
       \  int i; int s; s = 0;\n\
       \  for (i = 0; i < 4; i = i + 1) { int t; t = A[i]; s = s + t; }\n\
       \  for (i = 4; i < 8; i = i + 1) { int t; t = A[i]; s = s - t; }\n\
       \  return s;\n\
        }\n")

let test_semant_rejects_recursion () =
  Alcotest.(check bool) "direct" false
    (semant_ok "int f(int n) { return f(n - 1); }");
  Alcotest.(check bool) "mutual" false
    (semant_ok "int f(int n) { return g(n); } int g(int n) { return f(n); }")

let test_semant_rejects_bad_programs () =
  Alcotest.(check bool) "undeclared var" false
    (semant_ok "int f(int a) { return a + zz; }");
  Alcotest.(check bool) "array without index" false
    (semant_ok "int f(int A[4]) { return A; }");
  Alcotest.(check bool) "wrong dims" false
    (semant_ok "int f(int A[4][4]) { return A[1]; }");
  Alcotest.(check bool) "deref non-pointer" false
    (semant_ok "int f(int a) { return *a; }");
  Alcotest.(check bool) "assign whole array" false
    (semant_ok "void f(int A[4]) { A = 3; }");
  Alcotest.(check bool) "unknown call" false
    (semant_ok "int f(int a) { return mystery(a); }")

let test_semant_luts () =
  let luts =
    [ "cos_lut",
      { Semant.lut_in = Ast.make_ikind ~signed:false 10;
        lut_out = Ast.make_ikind ~signed:true 16 } ]
  in
  Alcotest.(check bool) "registered lut accepted" true
    (semant_ok ~luts "int f(uint10 x) { return cos_lut(x); }");
  Alcotest.(check bool) "unregistered lut rejected" false
    (semant_ok "int f(uint10 x) { return cos_lut(x); }")

let test_semant_feedback_intrinsics () =
  Alcotest.(check bool) "load_prev/store2next accepted" true
    (semant_ok
       "int sum = 0;\n\
        void dp(int t0, int* t1) {\n\
       \  int t2;\n\
       \  t2 = ROCCC_load_prev(sum) + t0;\n\
       \  ROCCC_store2next(sum, t2);\n\
       \  *t1 = sum;\n\
        }")

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run_fir input =
  let outcome =
    Interp.run_source fir_source "fir"
      ~arrays:[ "A", Array.map Int64.of_int input ]
  in
  match List.assoc_opt "C" outcome.Interp.arrays with
  | Some c -> Array.map Int64.to_int c
  | None -> Alcotest.fail "no output array C"

let fir_reference a i = (3 * a.(i)) + (5 * a.(i + 1)) + (7 * a.(i + 2))
                        + (9 * a.(i + 3)) - a.(i + 4)

let test_interp_fir () =
  let input = Array.init 21 (fun i -> (i * 7) - 30) in
  let output = run_fir input in
  for i = 0 to 16 do
    Alcotest.(check int)
      (Printf.sprintf "C[%d]" i)
      (fir_reference input i) output.(i)
  done

let test_interp_accumulator () =
  let input = Array.init 32 (fun i -> i) in
  let outcome =
    Interp.run_source accumulator_source "acc"
      ~arrays:[ "A", Array.map Int64.of_int input ]
  in
  match outcome.Interp.pointer_outputs with
  | [ ("out", v) ] -> Alcotest.(check int64) "sum" 496L v
  | _ -> Alcotest.fail "expected single pointer output"

let test_interp_if_else () =
  let run x1 x2 =
    let outcome =
      Interp.run_source if_else_source "if_else"
        ~scalars:[ "x1", Int64.of_int x1; "x2", Int64.of_int x2 ]
    in
    let get n = List.assoc n outcome.Interp.pointer_outputs in
    Int64.to_int (get "x3"), Int64.to_int (get "x4")
  in
  (* Reference semantics from the paper's Figure 5. *)
  let reference x1 x2 =
    let c = x1 - x2 in
    let a = if c < x2 then x1 * x1 else (x1 * x2) + 3 in
    c - a, a
  in
  List.iter
    (fun (x1, x2) ->
      let got = run x1 x2 in
      let want = reference x1 x2 in
      Alcotest.(check (pair int int))
        (Printf.sprintf "if_else %d %d" x1 x2)
        want got)
    [ 0, 0; 5, 3; 3, 5; -4, 10; 100, -100; 7, 7 ]

let test_interp_truncation () =
  (* An 8-bit unsigned variable wraps at 256. *)
  let outcome =
    Interp.run_source
      "void f(int a, uint8* out) { *out = a; }" "f"
      ~scalars:[ "a", 300L ]
  in
  Alcotest.(check int64) "wrapped" 44L
    (List.assoc "out" outcome.Interp.pointer_outputs)

let test_interp_signed_truncation () =
  let outcome =
    Interp.run_source "void f(int a, int8* out) { *out = a; }" "f"
      ~scalars:[ "a", 200L ]
  in
  Alcotest.(check int64) "sign wrapped" (-56L)
    (List.assoc "out" outcome.Interp.pointer_outputs)

(* Calling a helper whose formals include a pointer output used to die on
   an [assert false]: the binder only bound scalar formals but then
   required the shapes to match exactly. Pointer formals bind to fresh
   cells; the helper's return value is the call's value. *)
let ptr_call_source =
  "int helper(int *o, int x) {\n\
  \  *o = x + 1;\n\
  \  return x * 2;\n\
   }\n\
   void k(int A[4], int B[4]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 4; i = i + 1) {\n\
  \    B[i] = helper(A[i]);\n\
  \  }\n\
   }\n"

let test_interp_pointer_formal_call () =
  let input = [| 3L; 5L; 7L; 11L |] in
  let outcome =
    Interp.run_source ptr_call_source "k" ~arrays:[ "A", input ]
  in
  match List.assoc_opt "B" outcome.Interp.arrays with
  | Some b ->
    Array.iteri
      (fun i a ->
        Alcotest.(check int64)
          (Printf.sprintf "B[%d]" i)
          (Int64.mul a 2L) b.(i))
      input
  | None -> Alcotest.fail "no output array B"

let test_compile_pointer_formal_call () =
  (* The same shape must survive inlining and lower to VHDL. *)
  match Roccc_core.Driver.compile ~entry:"k" ptr_call_source with
  | c ->
    Alcotest.(check bool) "produced VHDL" true
      (Roccc_vhdl.Ast.to_files c.Roccc_core.Driver.design <> [])
  | exception Roccc_core.Driver.Error msg ->
    Alcotest.fail ("pointer-formal call failed to compile: " ^ msg)

let test_interp_division_by_zero () =
  match
    Interp.run_source "void f(int a, int* o) { *o = a / 0; }" "f"
      ~scalars:[ "a", 5L ]
  with
  | exception Roccc_util.Diag.Error { where = "interpretation"; _ } -> ()
  | _ -> Alcotest.fail "expected a runtime error"

let test_interp_step_budget () =
  (* A very long loop exhausts a small step budget instead of hanging. *)
  let prog =
    Parser.parse_program
      "void f(int* o) { int i; int s; s = 0; for (i=0;i<1000000;i++) { s = s \
       + 1; } *o = s; }"
  in
  let rt = Interp.create ~max_steps:1000 prog in
  match Interp.run rt "f" with
  | exception Roccc_util.Diag.Error { where = "interpretation"; _ } -> ()
  | _ -> Alcotest.fail "expected step budget error"

let test_interp_function_call () =
  let outcome =
    Interp.run_source
      "int square(int x) { return x * x; }\n\
       void f(int a, int* o) { *o = square(a) + square(a + 1); }"
      "f" ~scalars:[ "a", 3L ]
  in
  Alcotest.(check int64) "9+16" 25L
    (List.assoc "o" outcome.Interp.pointer_outputs)

let test_interp_lut () =
  let luts =
    [ "double_lut",
      { Semant.lut_in = Ast.make_ikind ~signed:false 8;
        lut_out = Ast.make_ikind ~signed:false 9 } ]
  in
  let outcome =
    Interp.run_source ~luts
      ~lut_funcs:[ "double_lut", fun v -> Int64.mul v 2L ]
      "void f(uint8 a, uint9* o) { *o = double_lut(a); }" "f"
      ~scalars:[ "a", 21L ]
  in
  Alcotest.(check int64) "lut applied" 42L
    (List.assoc "o" outcome.Interp.pointer_outputs)

let test_interp_shifts_and_bits () =
  let outcome =
    Interp.run_source
      "void f(int a, int b, int* o1, int* o2, int* o3, int* o4) {\n\
      \  *o1 = a << 2; *o2 = a >> 1; *o3 = (a & b) | 8; *o4 = a ^ b;\n\
       }"
      "f"
      ~scalars:[ "a", 12L; "b", 10L ]
  in
  let get n = List.assoc n outcome.Interp.pointer_outputs in
  Alcotest.(check int64) "shl" 48L (get "o1");
  Alcotest.(check int64) "shr" 6L (get "o2");
  Alcotest.(check int64) "and-or" 8L (get "o3");
  Alcotest.(check int64) "xor" 6L (get "o4")

let test_interp_two_dim () =
  let outcome =
    Interp.run_source
      "void f(int A[2][3], int* o) { *o = A[0][0] + A[1][2]; }" "f"
      ~arrays:[ "A", [| 1L; 2L; 3L; 4L; 5L; 6L |] ]
  in
  Alcotest.(check int64) "row major" 7L
    (List.assoc "o" outcome.Interp.pointer_outputs)

let test_interp_globals_reset () =
  (* Running a kernel twice must re-initialize globals (sum = 0). *)
  let prog = Parser.parse_program accumulator_source in
  let rt = Interp.create prog in
  let arr = Array.init 32 Int64.of_int in
  let first = Interp.run rt "acc" ~arrays:[ "A", arr ] in
  let second = Interp.run rt "acc" ~arrays:[ "A", arr ] in
  Alcotest.(check int64) "first" 496L
    (List.assoc "out" first.Interp.pointer_outputs);
  Alcotest.(check int64) "second equals first" 496L
    (List.assoc "out" second.Interp.pointer_outputs)

(* The outcomes and step budgets pinned by test/golden/interp.txt
   (tools/gen_golden.exe writes it from the same cases). *)
let interp_golden_lines () =
  let ic = open_in_bin "golden/interp.txt" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* "name max_steps=n" lines; the others are outcome digests *)
let budget_line l = Scanf.sscanf_opt l "%s max_steps=%d" (fun m n -> m, n)

let test_interp_golden_outcomes () =
  let want =
    List.filter (fun l -> budget_line l = None) (interp_golden_lines ())
  in
  Alcotest.(check string) "outcome digests (tools/gen_golden.ml)"
    (String.concat "" (List.map (fun l -> l ^ "\n") want))
    (Interp_cases.outcome_lines ())

let test_interp_golden_budgets () =
  let budgets = List.filter_map budget_line (interp_golden_lines ()) in
  List.iter
    (fun (name, (run : ?max_steps:int -> unit -> Interp.outcome)) ->
      let n = List.assoc name budgets in
      ignore (run ~max_steps:n ());
      match run ~max_steps:(n - 1) () with
      | exception
          Roccc_util.Diag.Error
            { where = "interpretation";
              msg = "interpreter step budget exhausted";
              _ } ->
        ()
      | _ -> Alcotest.failf "%s: %d steps should not suffice" name (n - 1))
    Interp_cases.budgeted

(* The interpreter runs compiled closures over unboxed frames: a loop
   iteration allocates nothing. What remains is parsing and compiling
   the source and the result, chiefly the boxed int64 of each output
   element (4 words with its array slot); FIR 4096 measures about 7
   words per iteration, against about 180 when variables lived in a
   table of boxed values. *)
let max_words_per_iteration = 10.0

let test_interp_allocation_bounded () =
  let n = 4096 in
  let c =
    Roccc_core.Driver.compile ~entry:"fir" (Interp_cases.fir_source n)
  in
  let arrays = [ "A", Interp_cases.stream 2 (n + 4) ] in
  ignore (Roccc_core.Driver.interpret ~arrays c);
  let before = Gc.minor_words () in
  ignore (Roccc_core.Driver.interpret ~arrays c);
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > max_words_per_iteration then
    Alcotest.failf
      "FIR %d allocates %.1f minor words per loop iteration (bound %.0f)" n
      words max_words_per_iteration

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_fir_matches_reference =
  QCheck.Test.make ~count:100 ~name:"fir interpreter matches direct OCaml"
    QCheck.(array_of_size (Gen.return 21) (int_range (-1000) 1000))
    (fun input ->
      let output = run_fir input in
      Array.to_list output
      = List.init 17 (fun i -> fir_reference input i))

let prop_truncate_idempotent =
  QCheck.Test.make ~count:500 ~name:"bit truncation is idempotent"
    QCheck.(pair (int_range 1 32) int64)
    (fun (width, v) ->
      let open Roccc_util.Bits in
      let t1 = truncate ~signed:true width v in
      let t2 = truncate ~signed:true width t1 in
      Int64.equal t1 t2
      &&
      let u1 = truncate ~signed:false width v in
      let u2 = truncate ~signed:false width u1 in
      Int64.equal u1 u2)

let prop_truncate_in_range =
  QCheck.Test.make ~count:500 ~name:"truncated values fit their width"
    QCheck.(pair (int_range 1 32) int64)
    (fun (width, v) ->
      let open Roccc_util.Bits in
      fits ~signed:true width (truncate ~signed:true width v)
      && fits ~signed:false width (truncate ~signed:false width v))

let prop_bits_for_signed_sound =
  QCheck.Test.make ~count:500 ~name:"bits_for_signed yields a fitting width"
    QCheck.(int_range (-1_000_000) 1_000_000)
    (fun v ->
      let v = Int64.of_int v in
      let w = Roccc_util.Bits.bits_for_signed v in
      w <= 64 && Roccc_util.Bits.fits ~signed:true (min w 63) v)

let prop_clog2 =
  QCheck.Test.make ~count:200 ~name:"clog2 bounds"
    QCheck.(int_range 1 100000)
    (fun n ->
      let w = Roccc_util.Bits.clog2 n in
      (1 lsl w) >= n && (w = 0 || (1 lsl (w - 1)) < n))

let prop_pretty_roundtrip_exprs =
  (* Random expression trees print and reparse to the same tree. *)
  let gen_expr =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Ast.Const (Int64.of_int i)) (int_range 0 1000);
              map (fun c -> Ast.Var (Printf.sprintf "v%c" c))
                (char_range 'a' 'e') ]
        else
          let sub = self (n / 2) in
          oneof
            [ map (fun i -> Ast.Const (Int64.of_int i)) (int_range 0 1000);
              map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) sub sub;
              map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) sub sub;
              map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) sub sub;
              map2 (fun a b -> Ast.Binop (Ast.Band, a, b)) sub sub;
              map2 (fun a b -> Ast.Binop (Ast.Shl, a, b)) sub sub;
              map (fun a -> Ast.Unop (Ast.Neg, a)) sub ]))
  in
  QCheck.Test.make ~count:200 ~name:"expression pretty/parse round-trip"
    (QCheck.make gen_expr ~print:Pretty.expr_to_string)
    (fun e ->
      let src =
        Printf.sprintf
          "int f(int va, int vb, int vc, int vd, int ve) { return %s; }"
          (Pretty.expr_to_string e)
      in
      match parse_func src with
      | { Ast.body = [ Ast.Sreturn (Some e') ]; _ } -> Ast.equal_expr e e'
      | _ -> false
      | exception Roccc_util.Diag.Error { where = "parse error"; _ } -> false)

(* ------------------------------------------------------------------ *)

let suites =
  [ "cfront.lexer",
    [ Alcotest.test_case "simple declaration" `Quick test_lex_simple;
      Alcotest.test_case "multi-char operators" `Quick test_lex_operators;
      Alcotest.test_case "comments" `Quick test_lex_comments;
      Alcotest.test_case "hex and suffixes" `Quick test_lex_hex;
      Alcotest.test_case "error position" `Quick test_lex_error_position;
      Alcotest.test_case "unterminated comment" `Quick
        test_lex_unterminated_comment;
      Alcotest.test_case "integer literal overflow" `Quick
        test_lex_integer_overflow ];
    "cfront.parser",
    [ Alcotest.test_case "FIR kernel" `Quick test_parse_fir;
      Alcotest.test_case "precedence" `Quick test_parse_precedence;
      Alcotest.test_case "parentheses" `Quick test_parse_parens_override;
      Alcotest.test_case "if/else with pointer outputs" `Quick
        test_parse_if_else;
      Alcotest.test_case "two-dimensional arrays" `Quick
        test_parse_two_dim_array;
      Alcotest.test_case "sized integer types" `Quick test_parse_sized_ints;
      Alcotest.test_case "for-loop update forms" `Quick
        test_parse_for_variants;
      Alcotest.test_case "compound assignment" `Quick
        test_parse_compound_assign;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "pretty round-trip" `Quick test_pretty_roundtrip ];
    "cfront.semant",
    [ Alcotest.test_case "accepts paper kernels" `Quick
        test_semant_accepts_kernels;
      Alcotest.test_case "rejects recursion" `Quick
        test_semant_rejects_recursion;
      Alcotest.test_case "function scope" `Quick test_semant_function_scope;
      Alcotest.test_case "block scope" `Quick test_semant_block_scope;
      Alcotest.test_case "shadowing rejected" `Quick
        test_semant_rejects_shadowing;
      Alcotest.test_case "rejects ill-formed programs" `Quick
        test_semant_rejects_bad_programs;
      Alcotest.test_case "lookup-table signatures" `Quick test_semant_luts;
      Alcotest.test_case "feedback intrinsics" `Quick
        test_semant_feedback_intrinsics ];
    "cfront.interp",
    [ Alcotest.test_case "FIR" `Quick test_interp_fir;
      Alcotest.test_case "accumulator" `Quick test_interp_accumulator;
      Alcotest.test_case "if_else" `Quick test_interp_if_else;
      Alcotest.test_case "unsigned truncation" `Quick test_interp_truncation;
      Alcotest.test_case "golden outcomes" `Quick test_interp_golden_outcomes;
      Alcotest.test_case "golden step budgets" `Quick
        test_interp_golden_budgets;
      Alcotest.test_case "allocation per iteration bounded" `Quick
        test_interp_allocation_bounded;
      Alcotest.test_case "signed truncation" `Quick
        test_interp_signed_truncation;
      Alcotest.test_case "division by zero" `Quick
        test_interp_division_by_zero;
      Alcotest.test_case "call with pointer formal" `Quick
        test_interp_pointer_formal_call;
      Alcotest.test_case "pointer-formal call compiles" `Quick
        test_compile_pointer_formal_call;
      Alcotest.test_case "step budget" `Quick test_interp_step_budget;
      Alcotest.test_case "function call" `Quick test_interp_function_call;
      Alcotest.test_case "lookup table" `Quick test_interp_lut;
      Alcotest.test_case "shifts and bitwise ops" `Quick
        test_interp_shifts_and_bits;
      Alcotest.test_case "two-dimensional arrays" `Quick test_interp_two_dim;
      Alcotest.test_case "globals reset between runs" `Quick
        test_interp_globals_reset ];
    "cfront.properties",
    [ qcheck_case prop_fir_matches_reference;
      qcheck_case prop_truncate_idempotent;
      qcheck_case prop_truncate_in_range;
      qcheck_case prop_bits_for_signed_sound;
      qcheck_case prop_clog2;
      qcheck_case prop_pretty_roundtrip_exprs ] ]
