(** Hand-written lexer for the ROCCC C subset. *)

module Diag = Roccc_util.Diag

type token =
  | INT_LIT of int64
  | IDENT of string
  | KW_IF | KW_ELSE | KW_FOR | KW_RETURN | KW_VOID | KW_CONST
  | KW_INT | KW_UNSIGNED | KW_SIGNED | KW_CHAR | KW_SHORT | KW_LONG
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | SHL | SHR
  | LT | LE | GT | GE | EQEQ | NE
  | ANDAND | OROR
  | ASSIGN
  | PLUS_ASSIGN | MINUS_ASSIGN
  | PLUSPLUS | MINUSMINUS
  | QUESTION | COLON
  | ARROW  (** [->]: pipeline composition (process networks) *)
  | EOF

type located = { tok : token; line : int; col : int }

let token_name = function
  | INT_LIT v -> Printf.sprintf "integer %Ld" v
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW_IF -> "'if'" | KW_ELSE -> "'else'" | KW_FOR -> "'for'"
  | KW_RETURN -> "'return'" | KW_VOID -> "'void'" | KW_CONST -> "'const'"
  | KW_INT -> "'int'" | KW_UNSIGNED -> "'unsigned'" | KW_SIGNED -> "'signed'"
  | KW_CHAR -> "'char'" | KW_SHORT -> "'short'" | KW_LONG -> "'long'"
  | LPAREN -> "'('" | RPAREN -> "')'" | LBRACE -> "'{'" | RBRACE -> "'}'"
  | LBRACKET -> "'['" | RBRACKET -> "']'" | SEMI -> "';'" | COMMA -> "','"
  | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'"
  | PERCENT -> "'%'" | AMP -> "'&'" | PIPE -> "'|'" | CARET -> "'^'"
  | TILDE -> "'~'" | BANG -> "'!'" | SHL -> "'<<'" | SHR -> "'>>'"
  | LT -> "'<'" | LE -> "'<='" | GT -> "'>'" | GE -> "'>='"
  | EQEQ -> "'=='" | NE -> "'!='" | ANDAND -> "'&&'" | OROR -> "'||'"
  | ASSIGN -> "'='" | PLUS_ASSIGN -> "'+='" | MINUS_ASSIGN -> "'-='"
  | PLUSPLUS -> "'++'" | MINUSMINUS -> "'--'"
  | ARROW -> "'->'"
  | QUESTION -> "'?'" | COLON -> "':'"
  | EOF -> "end of input"

let keyword_table =
  [ "if", KW_IF; "else", KW_ELSE; "for", KW_FOR; "return", KW_RETURN;
    "void", KW_VOID; "const", KW_CONST; "int", KW_INT;
    "unsigned", KW_UNSIGNED; "signed", KW_SIGNED; "char", KW_CHAR;
    "short", KW_SHORT; "long", KW_LONG ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek_char st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_char2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek_char st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let error st msg = Diag.failf ~pos:(st.line, st.col) "parse error" "%s" msg

let rec skip_trivia st =
  match peek_char st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '/' -> (
    match peek_char2 st with
    | Some '/' ->
      while peek_char st <> None && peek_char st <> Some '\n' do advance st done;
      skip_trivia st
    | Some '*' ->
      advance st;
      advance st;
      let rec close () =
        match peek_char st, peek_char2 st with
        | Some '*', Some '/' ->
          advance st;
          advance st
        | Some _, _ ->
          advance st;
          close ()
        | None, _ -> error st "unterminated comment"
      in
      close ();
      skip_trivia st
    | Some _ | None -> ())
  | Some _ | None -> ()

let lex_number st =
  (* Report literal errors at the literal's start, not wherever the scan
     stopped — by the time we know the text is bad, st points past it. *)
  let sline = st.line and scol = st.col in
  let start = st.pos in
  let hex =
    peek_char st = Some '0' && (peek_char2 st = Some 'x' || peek_char2 st = Some 'X')
  in
  if hex then (advance st; advance st);
  let digit_ok = if hex then is_hex_digit else is_digit in
  while (match peek_char st with Some c -> digit_ok c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  (* Allow (and ignore) u/U/l/L suffixes. *)
  while
    match peek_char st with
    | Some ('u' | 'U' | 'l' | 'L') -> true
    | Some _ | None -> false
  do
    advance st
  done;
  match Int64.of_string_opt text with
  | Some v -> INT_LIT v
  | None ->
    (* The scan only admits well-formed digit runs, so [None] means either
       a bare "0x" prefix or a value outside the 64-bit carrier: hex
       literals wider than 16 digits, or decimals beyond the signed
       64-bit range. Both must be loud — silently wrapping a width the
       hardware cannot hold would corrupt every later width inference. *)
    let msg =
      if hex && String.length text <= 2 then
        Printf.sprintf "invalid integer literal %S" text
      else
        Printf.sprintf
          "integer literal %s is out of range (it does not fit in 64 bits)"
          text
    in
    Diag.failf ~pos:(sline, scol) "parse error" "%s" msg

let lex_ident st =
  let start = st.pos in
  while (match peek_char st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match List.assoc_opt text keyword_table with
  | Some kw -> kw
  | None -> IDENT text

let next_token st : located =
  skip_trivia st;
  let line = st.line and col = st.col in
  let simple tok = advance st; tok in
  let with2 second two one =
    advance st;
    if peek_char st = Some second then (advance st; two) else one
  in
  let tok =
    match peek_char st with
    | None -> EOF
    | Some c when is_digit c -> lex_number st
    | Some c when is_ident_start c -> lex_ident st
    | Some '(' -> simple LPAREN
    | Some ')' -> simple RPAREN
    | Some '{' -> simple LBRACE
    | Some '}' -> simple RBRACE
    | Some '[' -> simple LBRACKET
    | Some ']' -> simple RBRACKET
    | Some ';' -> simple SEMI
    | Some ',' -> simple COMMA
    | Some '+' -> (
      advance st;
      match peek_char st with
      | Some '+' -> advance st; PLUSPLUS
      | Some '=' -> advance st; PLUS_ASSIGN
      | Some _ | None -> PLUS)
    | Some '-' -> (
      advance st;
      match peek_char st with
      | Some '-' -> advance st; MINUSMINUS
      | Some '=' -> advance st; MINUS_ASSIGN
      | Some '>' -> advance st; ARROW
      | Some _ | None -> MINUS)
    | Some '*' -> simple STAR
    | Some '/' -> simple SLASH
    | Some '%' -> simple PERCENT
    | Some '~' -> simple TILDE
    | Some '?' -> simple QUESTION
    | Some ':' -> simple COLON
    | Some '&' -> with2 '&' ANDAND AMP
    | Some '|' -> with2 '|' OROR PIPE
    | Some '^' -> simple CARET
    | Some '!' -> with2 '=' NE BANG
    | Some '=' -> with2 '=' EQEQ ASSIGN
    | Some '<' -> (
      advance st;
      match peek_char st with
      | Some '<' -> advance st; SHL
      | Some '=' -> advance st; LE
      | Some _ | None -> LT)
    | Some '>' -> (
      advance st;
      match peek_char st with
      | Some '>' -> advance st; SHR
      | Some '=' -> advance st; GE
      | Some _ | None -> GT)
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  { tok; line; col }

(** Tokenize a whole source string. Raises a positioned
    {!Roccc_util.Diag.Error} on malformed input. *)
let tokenize (src : string) : located list =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec loop acc =
    let t = next_token st in
    if t.tok = EOF then List.rev (t :: acc) else loop (t :: acc)
  in
  loop []
