(** A compact VHDL design representation — entities, architectures, signals,
    concurrent assignments, clocked processes, selected assignments and
    component instances — with the text renderer (IEEE 1076.3 numeric_std
    arithmetic, paper §4.2.4). *)

type vtype =
  | Std_logic
  | Signed of int    (** signed(w-1 downto 0) *)
  | Unsigned of int  (** unsigned(w-1 downto 0) *)

type direction = Dir_in | Dir_out

type port = { port_name : string; port_dir : direction; port_type : vtype }

type signal_decl = { sig_name : string; sig_type : vtype }

(** Concurrent statements; RHS expressions are carried as strings built by
    the generator (the linter tokenizes them). *)
type concurrent =
  | Assign of string * string  (** target <= expression; *)
  | Instance of {
      inst_label : string;
      component : string;
      port_map : (string * string) list;  (** formal -> actual *)
    }
  | Clocked_process of {
      label : string;
      clock : string;
      reset : string option;
      assignments : (string * string) list;  (** on rising edge *)
      reset_assignments : (string * string) list;  (** when reset = '1' *)
    }
  | Comment of string
  | Selected of {
      target : string;
      selector : string;
      cases : (string * string) list;  (** value expression -> choice *)
      default : string;
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

(** A full design: units in elaboration order (leaves first) plus ROM
    initialization text files keyed by table name. *)
type design = {
  design_name : string;
  units : design_unit list;
  rom_inits : (string * string) list;
}

val vtype_width : vtype -> int

val to_string : design -> string
(** Render the whole design as one VHDL source text. *)

val to_files : design -> (string * string) list
(** The design's files: the .vhd source plus per-table .init text files
    ("a pure text initialization file", §4.2.4). *)
