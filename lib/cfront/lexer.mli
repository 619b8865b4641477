(** Hand-written lexer for the ROCCC C subset. *)

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

val token_name : token -> string
(** Human-readable token name for error messages. *)

val tokenize : string -> located list
(** Tokenize a whole source string (the final element is EOF). Handles
    line and block comments, decimal and hex literals with u/U/l/L
    suffixes. Raises a positioned {!Roccc_util.Diag.Error} on malformed
    input. *)
