(** Structural checks over generated VHDL designs. We cannot run a vendor
    toolchain offline, so this linter enforces the static rules a VHDL
    front-end would: every referenced signal is declared, no signal has
    multiple drivers, component instantiations match a generated entity and
    map every formal, and output ports are never read inside their own
    architecture.

    Every check is a hashtable lookup, so a design lints in time linear in
    its size. *)

module Diag = Roccc_util.Diag

(* Tables keyed by signal name. The generator shares one value per name,
   so most equal names are the same value. *)
module Names = Hashtbl.Make (struct
  type t = Ast.name

  let equal (a : t) (b : t) =
    a == b
    ||
    match a, b with
    | Ast.Reg (r, k), Ast.Reg (r', k') | Ast.Internal (r, k), Ast.Internal (r', k')
      ->
      r = r' && k = k'
    | Ast.Id s, Ast.Id s' -> String.equal s s'
    | _ -> false

  let hash = function
    | Ast.Reg (r, k) -> (r * 65599) + k
    | Ast.Internal (r, k) -> (r * 65599) + k + 31
    | Ast.Id s -> Hashtbl.hash s
end)

(* Calls [f] on each name [e] refers to, in the order the text shows them. *)
let rec iter_refs (f : Ast.name -> unit) (e : Ast.expr) : unit =
  match e with
  | Ast.Ref n -> f n
  | Ast.Int _ | Ast.Bits _ | Ast.Zeros | Ast.Lit _ | Ast.Wide_lit _ -> ()
  | Ast.Resize (e, _) | Ast.Unop (_, e) | Ast.Paren e -> iter_refs f e
  | Ast.Binop (_, a, b) ->
    iter_refs f a;
    iter_refs f b
  | Ast.Call (_, args) -> List.iter (iter_refs f) args
  | Ast.When (a, c, b) ->
    iter_refs f a;
    iter_refs f c;
    iter_refs f b

type report = {
  units_checked : int;
  instances_checked : int;
  signals_checked : int;
}

(* A generated entity's formals: the ports in order, and each name's first
   position. [mapped.(i) = s] marks formal [i] mapped by instance [s]. *)
type formals = {
  f_ports : Ast.port array;
  f_index : int Names.t;
  f_mapped : int array;
}

let formals_of (ports : Ast.port list) : formals =
  let f_ports = Array.of_list ports in
  let f_index = Names.create (Array.length f_ports) in
  Array.iteri
    (fun i p ->
      if not (Names.mem f_index p.Ast.port_name) then
        Names.add f_index p.Ast.port_name i)
    f_ports;
  { f_ports; f_index; f_mapped = Array.make (Array.length f_ports) (-1) }

(* Occurrence count of each name. *)
let counts (names : Ast.name list) : int Names.t =
  let t = Names.create (List.length names) in
  List.iter
    (fun n ->
      Names.replace t n (1 + Option.value ~default:0 (Names.find_opt t n)))
    names;
  t

(* The first name, in list order, that occurs more than once. *)
let first_repeated counts names =
  List.find_opt (fun n -> Names.find counts n > 1) names

let check_unit (entities : (string, formals) Hashtbl.t) (instance_id : int ref)
    (u : Ast.design_unit) : int * int =
  let e = u.Ast.unit_entity and a = u.Ast.unit_arch in
  let ename = e.Ast.entity_name in
  let str = Ast.name_to_string in
  let names =
    List.map (fun p -> p.Ast.port_name) e.Ast.entity_ports
    @ List.map (fun s -> s.Ast.sig_name) a.Ast.signals
  in
  let declared = counts names in
  (match first_repeated declared names with
  | Some x -> Diag.failf "vhdl lint" "%s: %s declared more than once" ename (str x)
  | None -> ());
  let out_ports = Names.create 16 in
  List.iter
    (fun p ->
      if p.Ast.port_dir = Ast.Dir_out then Names.replace out_ports p.Ast.port_name ())
    e.Ast.entity_ports;
  let components = Hashtbl.create 16 in
  List.iter (fun (c, _) -> Hashtbl.replace components c ()) a.Ast.components;
  let check_ref where name =
    if not (Names.mem declared name) then
      Diag.failf "vhdl lint" "%s: undeclared name %s in %s" ename (str name) where
  in
  let check_read where name =
    check_ref where name;
    if Names.mem out_ports name then
      Diag.failf "vhdl lint" "%s: output port %s read in %s" ename (str name) where
  in
  let drivers = Names.create (Names.length declared) in
  let drive where name =
    check_ref where name;
    if Names.mem drivers name then
      Diag.failf "vhdl lint" "%s: signal %s has multiple drivers" ename (str name)
    else Names.replace drivers name ()
  in
  let reads where e = iter_refs (check_read where) e in
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
        (* a process is one driver of each distinct signal it assigns,
           in its reset branch or on the clock edge *)
        let targets = Names.create 8 in
        let drive_once where t =
          if not (Names.mem targets t) then begin
            Names.add targets t ();
            drive where t
          end
        in
        List.iter
          (fun (t, v) ->
            drive_once "clocked assignment" t;
            reads "clocked rhs" v)
          assignments;
        List.iter
          (fun (t, v) ->
            drive_once "reset assignment" t;
            reads "reset rhs" v)
          reset_assignments
      | Ast.Instance { inst_label; component; port_map } -> (
        incr instances;
        incr instance_id;
        let id = !instance_id in
        if not (Hashtbl.mem components component) then
          Diag.failf "vhdl lint"
            "%s: instance %s uses undeclared component %s" ename inst_label
            component;
        match Hashtbl.find_opt entities component with
        | None ->
          Diag.failf "vhdl lint"
            "%s: component %s has no generated entity" ename component
        | Some f ->
          List.iter
            (fun (formal, actual) ->
              match Names.find_opt f.f_index formal with
              | None ->
                Diag.failf "vhdl lint"
                  "%s: instance %s maps unknown formal %s" ename inst_label
                  (str formal)
              | Some i ->
                f.f_mapped.(i) <- id;
                iter_refs (check_ref "port actual") actual;
                if f.f_ports.(i).Ast.port_dir = Ast.Dir_in then
                  (* actuals feeding in-ports must not read our out ports *)
                  iter_refs (check_read "port actual") actual
                else
                  (* actual of an out formal is driven by the instance *)
                  iter_refs (drive "instance output") actual)
            port_map;
          (* every formal must be mapped *)
          Array.iter
            (fun p ->
              let fname = p.Ast.port_name in
              if f.f_mapped.(Names.find f.f_index fname) <> id then
                Diag.failf "vhdl lint"
                  "%s: instance %s leaves formal %s unmapped" ename
                  inst_label (str fname))
            f.f_ports))
    a.Ast.body;
  !instances, List.length names

(** Lint a whole design. Raises {!Roccc_util.Diag.Error} on the first
    violation; returns a summary report on success. *)
let check (d : Ast.design) : report =
  let names = List.map (fun u -> u.Ast.unit_entity.Ast.entity_name) d.Ast.units in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace seen n (1 + Option.value ~default:0 (Hashtbl.find_opt seen n)))
    names;
  (match List.find_opt (fun n -> Hashtbl.find seen n > 1) names with
  | Some x -> Diag.failf "vhdl lint" "duplicate entity %s" x
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
