(** A compact VHDL design representation — entities, architectures, signals,
    concurrent assignments, clocked processes, selected assignments and
    component instances — with the text renderer (IEEE 1076.3 numeric_std
    arithmetic, paper §4.2.4). Names and expressions are values; text is
    made only by {!to_string} and {!to_files}. *)

type vtype =
  | Std_logic
  | Signed of int    (** signed(w-1 downto 0) *)
  | Unsigned of int  (** unsigned(w-1 downto 0) *)

(** A signal or port name. Two names are equal exactly when their texts
    are, provided every [Id] comes from {!id}. *)
type name =
  | Reg of int * int       (** [v<r>] at delay 0, [v<r>_d<k>] at delay k *)
  | Internal of int * int  (** [v<r>_i<k>]: a node's own copy at delay k *)
  | Id of string           (** any other name: ports, clk, rst, fb_* *)

val id : string -> name
(** [Id s], or the [Reg]/[Internal] name whose text is [s]. *)

val name_to_string : name -> string

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Lt | Le | Gt | Ge | Eq | Ne

type unop = Neg  (** [-e] *) | Not  (** [not e] *)

(** Right-hand sides, port-map actuals and selectors, printed left to
    right as written. *)
type expr =
  | Ref of name
  | Int of int                      (** an integer literal *)
  | Bits of string                  (** a bit-string literal, ["0101"] *)
  | Zeros                           (** [(others => '0')] *)
  | Lit of { signed : bool; width : int; value : int64 }
      (** [to_signed(value, width)] / [to_unsigned(value, width)] *)
  | Wide_lit of { signed : bool; width : int; value : int64 }
      (** [signed'("…")] / [unsigned'("…")]: the bit-string form that
          carries a constant wider than a VHDL integer *)
  | Resize of expr * int            (** [resize(e, w)] *)
  | Binop of binop * expr * expr    (** [a op b] *)
  | Unop of unop * expr
  | Paren of expr                   (** [(e)] *)
  | Call of string * expr list      (** [f(a, b, …)] *)
  | When of expr * expr * expr      (** [a when c else b] *)

type direction = Dir_in | Dir_out

type port = { port_name : name; port_dir : direction; port_type : vtype }

type signal_decl = { sig_name : name; sig_type : vtype }

(** Concurrent statements in an architecture body. *)
type concurrent =
  | Assign of name * expr  (** target <= expression; *)
  | Instance of {
      inst_label : string;
      component : string;
      port_map : (name * expr) list;  (** formal -> actual *)
    }
  | Clocked_process of {
      label : string;
      clock : name;
      reset : name option;
      assignments : (name * expr) list;  (** on rising edge *)
      reset_assignments : (name * expr) list;  (** when reset = '1' *)
    }
  | Comment of string
  | Selected of {
      target : name;
      selector : expr;
      cases : (expr * int) list;  (** value expression -> choice *)
      default : expr;
    }  (** with selector select target <= ... when choice, ... *)

type architecture = {
  arch_name : string;
  of_entity : string;
  signals : signal_decl list;
  components : (string * port list) list;
  body : concurrent list;
}

type entity = { entity_name : string; entity_ports : port list }

type design_unit = { unit_entity : entity; unit_arch : architecture }

(** A full design: units in elaboration order (leaves first) plus the
    lookup tables its ROM units read, whose text initialization files
    {!to_files} writes. *)
type design = {
  design_name : string;
  units : design_unit list;
  roms : Roccc_hir.Lut_conv.table list;
}

val vtype_width : vtype -> int

val to_string : design -> string
(** Render the whole design as one VHDL source text. *)

val to_files : design -> (string * string) list
(** The design's files: the .vhd source plus per-table .init text files
    ("a pure text initialization file", §4.2.4). *)
