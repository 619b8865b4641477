(** Value-change-dump (IEEE 1364 VCD) rendering of an execution-model run:
    the window inputs as they launch, the outputs as they retire, and the
    controller state — loadable into GTKWave next to a VHDL simulation of
    the generated design. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(** One traced signal: name, bit width, and its value changes as
    (cycle, value) pairs in increasing cycle order. *)
type signal = {
  sig_name : string;
  sig_bits : int;
  changes : (int * int64) list;
}

type t = {
  design : string;
  timescale_ns : int;
  signals : signal list;
  end_cycle : int;
}

(* VCD identifier characters: printable ASCII 33..126. *)
let ident_of_index (i : int) : string =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let binary ~bits (v : int64) : string =
  Roccc_util.Bits.to_binary_string ~width:bits
    (Roccc_util.Bits.truncate_unsigned bits v)

(** Render the dump as VCD text. *)
let render (t : t) : string =
  List.iter
    (fun s ->
      if s.sig_bits < 1 || s.sig_bits > 64 then
        errf "vcd: signal %s has width %d" s.sig_name s.sig_bits;
      let rec sorted = function
        | (c1, _) :: ((c2, _) :: _ as rest) ->
          if c1 > c2 then errf "vcd: %s changes out of order" s.sig_name
          else sorted rest
        | _ -> ()
      in
      sorted s.changes)
    t.signals;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "$date generated $end\n");
  Buffer.add_string buf
    (Printf.sprintf "$version roccc-reproduction execution model $end\n");
  Buffer.add_string buf
    (Printf.sprintf "$timescale %d ns $end\n" t.timescale_ns);
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" t.design);
  let idents =
    List.mapi (fun i s -> s.sig_name, (ident_of_index i, s)) t.signals
  in
  List.iter
    (fun (_, (id, s)) ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" s.sig_bits id s.sig_name))
    idents;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  (* group changes by cycle, newest first within a cycle *)
  let by_cycle : (int, (string * signal * int64) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (_, (id, s)) ->
      List.iter
        (fun (cycle, v) ->
          let cur = Option.value (Hashtbl.find_opt by_cycle cycle) ~default:[] in
          Hashtbl.replace by_cycle cycle ((id, s, v) :: cur))
        s.changes)
    idents;
  let cycles =
    Hashtbl.fold (fun c _ acc -> c :: acc) by_cycle []
    |> List.sort_uniq compare
  in
  List.iter
    (fun cycle ->
      Buffer.add_string buf (Printf.sprintf "#%d\n" cycle);
      List.iter
        (fun (id, s, v) ->
          if s.sig_bits = 1 then
            Buffer.add_string buf
              (Printf.sprintf "%Ld%s\n" (Int64.logand v 1L) id)
          else
            Buffer.add_string buf
              (Printf.sprintf "b%s %s\n" (binary ~bits:s.sig_bits v) id))
        (List.rev (Hashtbl.find by_cycle cycle)))
    cycles;
  Buffer.add_string buf (Printf.sprintf "#%d\n" t.end_cycle);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Building a dump from a simulation                                   *)
(* ------------------------------------------------------------------ *)

(* Controller states as small integers for the state trace. *)
let state_code = function
  | "idle" -> 0L
  | "filling" -> 1L
  | "steady" -> 2L
  | "draining" -> 3L
  | "done" -> 4L
  | _ -> 7L

(** Build a VCD from a kernel and the simulation result: inputs change on
    the recorded launch cycles, outputs on their retire cycles, and the
    controller state on its transitions. *)
let of_simulation ~(design : string) (k : Roccc_hir.Kernel.t)
    (r : Engine.result) : t =
  let kind_of name =
    List.find_map
      (fun (p : Roccc_cfront.Ast.param) ->
        if String.equal p.Roccc_cfront.Ast.pname name then
          match p.Roccc_cfront.Ast.ptype with
          | Roccc_cfront.Ast.Tint kd | Roccc_cfront.Ast.Tptr kd -> Some kd
          | Roccc_cfront.Ast.Tarray _ | Roccc_cfront.Ast.Tvoid -> None
        else None)
      k.Roccc_hir.Kernel.dp.Roccc_cfront.Ast.params
  in
  let bits_of name =
    match kind_of name with
    | Some kd -> kd.Roccc_cfront.Ast.bits
    | None -> 32
  in
  let launch_trace = Lazy.force r.Engine.launch_trace in
  let input_names =
    match launch_trace with
    | [] -> []
    | (_, first) :: _ -> List.map fst first
  in
  let input_signals =
    List.map
      (fun name ->
        { sig_name = name;
          sig_bits = bits_of name;
          changes =
            List.map
              (fun (cycle, inputs) -> cycle, List.assoc name inputs)
              launch_trace })
      input_names
  in
  let output_signals =
    List.map
      (fun (o : Roccc_hir.Kernel.output) ->
        { sig_name = o.Roccc_hir.Kernel.port;
          sig_bits = o.Roccc_hir.Kernel.port_kind.Roccc_cfront.Ast.bits;
          changes =
            List.filter_map
              (fun (cycle, outputs) ->
                Option.map
                  (fun v -> cycle, v)
                  (List.assoc_opt o.Roccc_hir.Kernel.port outputs))
              (Lazy.force r.Engine.retire_trace) })
      k.Roccc_hir.Kernel.outputs
  in
  let controller =
    { sig_name = "controller_state";
      sig_bits = 3;
      changes =
        List.map (fun (c, s) -> c, state_code s) r.Engine.controller_trace }
  in
  { design;
    timescale_ns = 10;
    signals = (controller :: input_signals) @ output_signals;
    end_cycle = r.Engine.cycles + 1 }
