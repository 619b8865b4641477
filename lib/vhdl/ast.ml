(** A compact VHDL design representation — entities, architectures, signals,
    concurrent assignments, clocked processes and component instances —
    sufficient for the RTL the compiler emits (IEEE 1076.3 numeric_std
    arithmetic, paper §4.2.4), plus the text renderer. Names and
    expressions are values: the generator builds no text, the linter reads
    names off the tree, and the renderer writes each design once into one
    buffer. *)

type vtype =
  | Std_logic
  | Signed of int    (** signed(w-1 downto 0) *)
  | Unsigned of int  (** unsigned(w-1 downto 0) *)

type name =
  | Reg of int * int       (** [v<r>] at delay 0, [v<r>_d<k>] at delay k *)
  | Internal of int * int  (** [v<r>_i<k>]: a node's own copy at delay k *)
  | Id of string           (** any other name: ports, clk, rst, fb_* *)

(* The number [s.[i .. j-1]] spells in decimal without a leading zero, or
   -1 when it spells none. *)
let number s i j =
  if j <= i || j - i > 9 || (s.[i] = '0' && j - i > 1) then -1
  else
    let rec go k acc =
      if k = j then acc
      else
        match s.[k] with
        | '0' .. '9' as c -> go (k + 1) ((acc * 10) + Char.code c - 48)
        | _ -> -1
    in
    go i 0

(* A text that a [Reg] or [Internal] name renders to is that name, so that
   a C port called [v0] and the signal of register 0 are one name, as they
   are in the VHDL text. *)
let id s =
  let n = String.length s in
  if n < 2 || s.[0] <> 'v' then Id s
  else
    match String.index_opt s '_' with
    | None -> ( match number s 1 n with -1 -> Id s | r -> Reg (r, 0))
    | Some u -> (
      let r = number s 1 u in
      let k = if u + 1 < n then number s (u + 2) n else -1 in
      if r < 0 || k < 0 then Id s
      else
        match s.[u + 1] with
        | 'd' when k > 0 -> Reg (r, k)
        | 'i' -> Internal (r, k)
        | _ -> Id s)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Lt | Le | Gt | Ge | Eq | Ne

type unop = Neg | Not

type expr =
  | Ref of name
  | Int of int
  | Bits of string
  | Zeros
  | Lit of { signed : bool; width : int; value : int64 }
  | Wide_lit of { signed : bool; width : int; value : int64 }
  | Resize of expr * int
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Paren of expr
  | Call of string * expr list
  | When of expr * expr * expr

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
      assignments : (name * expr) list;        (** on rising edge *)
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
  components : (string * port list) list;  (** component declarations *)
  body : concurrent list;
}

type entity = { entity_name : string; entity_ports : port list }

type design_unit = { unit_entity : entity; unit_arch : architecture }

(** A full design: units in elaboration order (leaf components first) plus
    the lookup tables its ROM units read. *)
type design = {
  design_name : string;
  units : design_unit list;
  roms : Roccc_hir.Lut_conv.table list;
}

let vtype_width = function Std_logic -> 1 | Signed w | Unsigned w -> w

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let add = Buffer.add_string

let rec add_int buf n =
  if n < 0 then add buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_name buf = function
  | Reg (r, k) ->
    Buffer.add_char buf 'v';
    add_int buf r;
    if k > 0 then begin
      add buf "_d";
      add_int buf k
    end
  | Internal (r, k) ->
    Buffer.add_char buf 'v';
    add_int buf r;
    add buf "_i";
    add_int buf k
  | Id s -> add buf s

let name_to_string n =
  let buf = Buffer.create 16 in
  add_name buf n;
  Buffer.contents buf

let binop_text = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "=" | Ne -> "/="

(* [add_list buf f sep xs] adds each of [xs] with [f], [sep] between. *)
let add_list buf f sep = function
  | [] -> ()
  | x :: rest ->
    f buf x;
    List.iter
      (fun x ->
        add buf sep;
        f buf x)
      rest

let rec add_expr buf = function
  | Ref n -> add_name buf n
  | Int i -> add_int buf i
  | Bits s ->
    Buffer.add_char buf '"';
    add buf s;
    Buffer.add_char buf '"'
  | Zeros -> add buf "(others => '0')"
  | Lit { signed; width; value } ->
    add buf (if signed then "to_signed(" else "to_unsigned(");
    add buf (Int64.to_string value);
    add buf ", ";
    add_int buf width;
    Buffer.add_char buf ')'
  | Wide_lit { signed; width; value } ->
    add buf (if signed then "signed'(\"" else "unsigned'(\"");
    add buf (Roccc_util.Bits.to_binary_string ~width value);
    add buf "\")"
  | Resize (e, w) ->
    add buf "resize(";
    add_expr buf e;
    add buf ", ";
    add_int buf w;
    Buffer.add_char buf ')'
  | Binop (op, a, b) ->
    add_expr buf a;
    Buffer.add_char buf ' ';
    add buf (binop_text op);
    Buffer.add_char buf ' ';
    add_expr buf b
  | Unop (Neg, e) ->
    Buffer.add_char buf '-';
    add_expr buf e
  | Unop (Not, e) ->
    add buf "not ";
    add_expr buf e
  | Paren e ->
    Buffer.add_char buf '(';
    add_expr buf e;
    Buffer.add_char buf ')'
  | Call (f, args) ->
    add buf f;
    Buffer.add_char buf '(';
    add_list buf add_expr ", " args;
    Buffer.add_char buf ')'
  | When (a, c, b) ->
    add_expr buf a;
    add buf " when ";
    add_expr buf c;
    add buf " else ";
    add_expr buf b

let add_vtype buf = function
  | Std_logic -> add buf "std_logic"
  | Signed w ->
    add buf "signed(";
    add_int buf (w - 1);
    add buf " downto 0)"
  | Unsigned w ->
    add buf "unsigned(";
    add_int buf (w - 1);
    add buf " downto 0)"

let add_ports buf = function
  | [] -> ()
  | ports ->
    add buf "  port (\n";
    add_list buf
      (fun buf p ->
        add buf "    ";
        add_name buf p.port_name;
        add buf (match p.port_dir with Dir_in -> " : in " | Dir_out -> " : out ");
        add_vtype buf p.port_type)
      ";\n" ports;
    add buf "\n  );\n"

(* [indent target <= value;] *)
let add_assignment buf indent (target, value) =
  add buf indent;
  add_name buf target;
  add buf " <= ";
  add_expr buf value;
  add buf ";\n"

let add_concurrent buf = function
  | Assign (target, rhs) -> add_assignment buf "  " (target, rhs)
  | Selected { target; selector; cases; default } ->
    add buf "  with ";
    add_expr buf selector;
    add buf " select\n    ";
    add_name buf target;
    add buf " <=\n";
    List.iter
      (fun (value, choice) ->
        add buf "      ";
        add_expr buf value;
        add buf " when ";
        add_int buf choice;
        add buf ",\n")
      cases;
    add buf "      ";
    add_expr buf default;
    add buf " when others;\n"
  | Comment text ->
    add buf "  -- ";
    add buf text;
    Buffer.add_char buf '\n'
  | Instance { inst_label; component; port_map } ->
    add buf "  ";
    add buf inst_label;
    add buf " : ";
    add buf component;
    add buf " port map (\n";
    add_list buf
      (fun buf (formal, actual) ->
        add buf "    ";
        add_name buf formal;
        add buf " => ";
        add_expr buf actual)
      ",\n" port_map;
    if port_map <> [] then Buffer.add_char buf '\n';
    add buf "  );\n"
  | Clocked_process { label; clock; reset; assignments; reset_assignments } ->
    add buf "  ";
    add buf label;
    add buf " : process(";
    add_name buf clock;
    add buf ")\n  begin\n    if rising_edge(";
    add_name buf clock;
    add buf ") then\n";
    (match reset with
    | Some r when reset_assignments <> [] ->
      add buf "      if ";
      add_name buf r;
      add buf " = '1' then\n";
      List.iter (add_assignment buf "        ") reset_assignments;
      add buf "      else\n";
      List.iter (add_assignment buf "        ") assignments;
      add buf "      end if;\n"
    | Some _ | None -> List.iter (add_assignment buf "      ") assignments);
    add buf "    end if;\n  end process;\n"

let add_unit buf (u : design_unit) =
  let e = u.unit_entity and a = u.unit_arch in
  add buf
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\nentity ";
  add buf e.entity_name;
  add buf " is\n";
  add_ports buf e.entity_ports;
  add buf "end entity ";
  add buf e.entity_name;
  add buf ";\n\narchitecture ";
  add buf a.arch_name;
  add buf " of ";
  add buf a.of_entity;
  add buf " is\n";
  List.iter
    (fun (cname, ports) ->
      add buf "  component ";
      add buf cname;
      Buffer.add_char buf '\n';
      add_ports buf ports;
      add buf "  end component;\n")
    a.components;
  List.iter
    (fun s ->
      add buf "  signal ";
      add_name buf s.sig_name;
      add buf " : ";
      add_vtype buf s.sig_type;
      add buf ";\n")
    a.signals;
  add buf "begin\n";
  List.iter (add_concurrent buf) a.body;
  add buf "end architecture ";
  add buf a.arch_name;
  add buf ";\n\n"

(** Render the whole design as one VHDL source text. *)
let to_string (d : design) : string =
  let buf = Buffer.create 8192 in
  add buf "-- ";
  add buf d.design_name;
  add buf " : generated by ROCCC-reproduction\n\n";
  List.iter (add_unit buf) d.units;
  Buffer.contents buf

(** All files of the design: the VHDL source plus ROM init text files
    ("a pure text initialization file, which defines the lookup table's
    content", paper §4.2.4). *)
let to_files (d : design) : (string * string) list =
  ((d.design_name ^ ".vhd"), to_string d)
  :: List.map
       (fun t ->
         t.Roccc_hir.Lut_conv.lut_name ^ ".init",
         Roccc_hir.Lut_conv.to_init_text t)
       d.roms
