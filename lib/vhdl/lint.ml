(** Structural checks over generated VHDL designs. We cannot run a vendor
    toolchain offline, so this linter enforces the static rules a VHDL
    front-end would: every referenced signal is declared, no signal has
    multiple drivers, component instantiations match a generated entity and
    map every formal, and output ports are never read inside their own
    architecture.

    Every check is a hashtable lookup, so a design lints in time linear in
    its size. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* VHDL keywords / functions appearing in generated expressions. *)
let builtin_names =
  [ "resize"; "to_signed"; "to_unsigned"; "to_integer"; "shift_left";
    "shift_right"; "signed"; "unsigned"; "when"; "else"; "and"; "or"; "xor";
    "not"; "rem"; "others"; "rising_edge"; "std_logic"; "std_logic_vector" ]

(* Is [text.[start .. start+len-1]] a builtin name, ignoring case? *)
let is_builtin text start len =
  List.exists
    (fun b ->
      String.length b = len
      &&
      let rec eq i =
        i = len || (Char.lowercase_ascii text.[start + i] = b.[i] && eq (i + 1))
      in
      eq 0)
    builtin_names

let is_ident_start c = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* Calls [f] on each maximal match of [A-Za-z_][A-Za-z0-9_]* in [text], left
   to right, skipping builtin names. *)
let iter_identifiers (f : string -> unit) (text : string) : unit =
  let n = String.length text in
  let rec skip i =
    if i < n then if is_ident_start text.[i] then word i (i + 1) else skip (i + 1)
  and word start i =
    if i < n && is_ident_char text.[i] then word start (i + 1)
    else begin
      let len = i - start in
      if not (is_builtin text start len) then f (String.sub text start len);
      skip i
    end
  in
  skip 0

let identifiers_of (text : string) : string list =
  let acc = ref [] in
  iter_identifiers (fun w -> acc := w :: !acc) text;
  List.rev !acc

type report = {
  units_checked : int;
  instances_checked : int;
  signals_checked : int;
}

(* A generated entity's formals: the ports in order, and each name's first
   position. [mapped.(i) = s] marks formal [i] mapped by instance [s]. *)
type formals = {
  f_ports : Ast.port array;
  f_index : (string, int) Hashtbl.t;
  f_mapped : int array;
}

let formals_of (ports : Ast.port list) : formals =
  let f_ports = Array.of_list ports in
  let f_index = Hashtbl.create (Array.length f_ports) in
  Array.iteri
    (fun i p ->
      if not (Hashtbl.mem f_index p.Ast.port_name) then
        Hashtbl.add f_index p.Ast.port_name i)
    f_ports;
  { f_ports; f_index; f_mapped = Array.make (Array.length f_ports) (-1) }

(* Occurrence count of each name. *)
let counts (names : string list) : (string, int) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Hashtbl.replace t n (1 + Option.value ~default:0 (Hashtbl.find_opt t n)))
    names;
  t

(* The first name, in list order, that occurs more than once. *)
let first_repeated counts names =
  List.find_opt (fun n -> Hashtbl.find counts n > 1) names

let check_unit (entities : (string, formals) Hashtbl.t) (instance_id : int ref)
    (u : Ast.design_unit) : int * int =
  let e = u.Ast.unit_entity and a = u.Ast.unit_arch in
  let ename = e.Ast.entity_name in
  let names =
    List.map (fun p -> p.Ast.port_name) e.Ast.entity_ports
    @ List.map (fun s -> s.Ast.sig_name) a.Ast.signals
  in
  let declared = counts names in
  (match first_repeated declared names with
  | Some x -> errf "%s: %s declared more than once" ename x
  | None -> ());
  let out_ports = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.Ast.port_dir = Ast.Dir_out then
        Hashtbl.replace out_ports p.Ast.port_name ())
    e.Ast.entity_ports;
  let components = Hashtbl.create 16 in
  List.iter (fun (c, _) -> Hashtbl.replace components c ()) a.Ast.components;
  let check_ref where name =
    if not (Hashtbl.mem declared name) then
      errf "%s: undeclared name %s in %s" ename name where
  in
  let check_read where name =
    check_ref where name;
    if Hashtbl.mem out_ports name then
      errf "%s: output port %s read in %s" ename name where
  in
  let drivers = Hashtbl.create 64 in
  let drive where name =
    check_ref where name;
    if Hashtbl.mem drivers name then
      errf "%s: signal %s has multiple drivers" ename name
    else Hashtbl.replace drivers name where
  in
  let reads where text = iter_identifiers (check_read where) text in
  let instances = ref 0 in
  List.iter
    (fun c ->
      match c with
      | Ast.Comment _ -> ()
      | Ast.Assign (target, rhs) ->
        drive "assignment" target;
        reads "assignment rhs" rhs
      | Ast.Selected { target; selector; cases; default } ->
        drive "selected assignment" target;
        reads "selector" selector;
        List.iter (fun (v, _) -> reads "case value" v) cases;
        reads "default value" default
      | Ast.Clocked_process { clock; assignments; reset_assignments; _ } ->
        check_ref "process sensitivity" clock;
        List.iter
          (fun (t, v) ->
            drive "clocked assignment" t;
            reads "clocked rhs" v)
          assignments;
        List.iter
          (fun (t, v) ->
            check_ref "reset assignment" t;
            reads "reset rhs" v)
          reset_assignments
      | Ast.Instance { inst_label; component; port_map } -> (
        incr instances;
        incr instance_id;
        let id = !instance_id in
        if not (Hashtbl.mem components component) then
          errf "%s: instance %s uses undeclared component %s" ename inst_label
            component;
        match Hashtbl.find_opt entities component with
        | None -> errf "%s: component %s has no generated entity" ename component
        | Some f ->
          List.iter
            (fun (formal, actual) ->
              match Hashtbl.find_opt f.f_index formal with
              | None ->
                errf "%s: instance %s maps unknown formal %s" ename inst_label
                  formal
              | Some i ->
                f.f_mapped.(i) <- id;
                iter_identifiers (check_ref "port actual") actual;
                if f.f_ports.(i).Ast.port_dir = Ast.Dir_in then
                  (* actuals feeding in-ports must not read our out ports *)
                  iter_identifiers (check_read "port actual") actual
                else
                  (* actual of an out formal is driven by the instance *)
                  iter_identifiers (drive "instance output") actual)
            port_map;
          (* every formal must be mapped *)
          Array.iter
            (fun p ->
              let fname = p.Ast.port_name in
              if f.f_mapped.(Hashtbl.find f.f_index fname) <> id then
                errf "%s: instance %s leaves formal %s unmapped" ename
                  inst_label fname)
            f.f_ports))
    a.Ast.body;
  !instances, List.length names

(** Lint a whole design. Raises {!Error} on the first violation; returns a
    summary report on success. *)
let check (d : Ast.design) : report =
  let names = List.map (fun u -> u.Ast.unit_entity.Ast.entity_name) d.Ast.units in
  (match first_repeated (counts names) names with
  | Some x -> errf "duplicate entity %s" x
  | None -> ());
  let entities = Hashtbl.create 16 in
  List.iter
    (fun u ->
      let e = u.Ast.unit_entity in
      Hashtbl.replace entities e.Ast.entity_name (formals_of e.Ast.entity_ports))
    d.Ast.units;
  let instance_id = ref 0 in
  let instances, signals =
    List.fold_left
      (fun (ai, asg) u ->
        let i, s = check_unit entities instance_id u in
        ai + i, asg + s)
      (0, 0) d.Ast.units
  in
  { units_checked = List.length d.Ast.units;
    instances_checked = instances;
    signals_checked = signals }
