(* In-memory span recording for the traced runs, and per-layer self time.

   The benchmark records spans only from its own code, around its calls
   into the library's public functions, plus the spans the library
   already reports through existing hooks: the driver's per-pass
   [instrument] callback, the [?trace] argument of [Search.run] and the
   [--trace] file of [roccc serve]. Spans live in a
   [Roccc_service.Trace.t] and form the hierarchy
   workload -> op -> layer call -> pass; each carries [op], [id],
   [parent] and [layer] arguments, so the Chrome JSON written at exit
   shows the same tree the metrics are computed from.

   Self time is wall-clock attribution: every instant of an op is
   credited to the deepest spans open at that instant, split evenly when
   several are open at once on different worker domains. The credits of
   one op therefore sum to its duration exactly, even when its children
   run in parallel. *)

module Trace = Roccc_service.Trace
module Pass = Roccc_core.Pass
module Driver = Roccc_core.Driver

type t = { trace : Trace.t; next_id : int Atomic.t }

(* Where new spans attach: the op they belong to and their parent span. *)
type ctx = { rc : t; op : int; parent : int }

let create () = { trace = Trace.create (); next_id = Atomic.make 1 }
let fresh_id t = Atomic.fetch_and_add t.next_id 1
let now = Unix.gettimeofday

(* Which lib/ module does the work of a pass. The analysis passes are
   declared in the VM layer of the pass manager but run lib/analysis. *)
let layer_of_pass (name : string) : string =
  match name with
  | "ssa-and-cfg" | "vm-optimize" -> "analysis"
  | "coalesced" -> "service"
  | _ -> (
    match Pass.find name with
    | Some p -> Pass.layer_name p.Pass.layer
    | None -> "core")

let add (c : ctx) ~id ~layer ?(cat = "call") ?(args = []) ?(tid = 0) ~name
    ~start ~dur () =
  Trace.add_span c.rc.trace ~cat ~tid ~name ~start_s:start ~dur_s:dur
    ~args:
      ([ "op", Trace.Int c.op; "id", Trace.Int id; "parent", Trace.Int c.parent;
         "layer", Trace.Str layer ]
      @ args)
    ()

(* [span ctx ~layer ~name f] runs [f] with the context its children
   should attach to, recording a span around it when tracing. *)
let span (ctx : ctx option) ?(cat = "call") ?tid ~layer ~name
    (f : ctx option -> 'a) : 'a =
  match ctx with
  | None -> f None
  | Some c ->
    let id = fresh_id c.rc in
    let t0 = now () in
    let record () =
      add c ~id ~layer ~cat ?tid ~name ~start:t0 ~dur:(now () -. t0) ()
    in
    (match f (Some { c with parent = id }) with
    | r ->
      record ();
      r
    | exception e ->
      record ();
      raise e)

(* Op spans are the roots of attribution; [op] is the id children share. *)
let op_span (rc : t) ?tid ~(workload : int) ~(op : int) (f : ctx -> 'a) : 'a
    =
  span (Some { rc; op; parent = workload }) ~cat:"op" ?tid ~layer:"harness"
    ~name:"op"
    (fun c -> f (Option.get c))

let instrument (ctx : ctx option) : Driver.instrument option =
  Option.map
    (fun c (ps : Driver.pass_stats) ->
      add c ~id:(fresh_id c.rc) ~cat:"pass"
        ~layer:(layer_of_pass ps.Driver.pass_name)
        ~args:[ "ir_size", Trace.Int ps.Driver.ir_size ]
        ~name:ps.Driver.pass_name ~start:ps.Driver.started_s
        ~dur:ps.Driver.elapsed_s ())
    ctx

let layer_of_foreign (sp : Trace.span) : string =
  match sp.Trace.sp_cat with
  | "pass" -> layer_of_pass sp.Trace.sp_name
  | "tune" -> "tune"
  | _ -> "service"

(* Re-parent spans the library recorded on its own (no ids) under [c]:
   on each worker tid, a span nests in the latest earlier span that
   still covers its start. [shift] moves foreign timestamps onto this
   process's clock. *)
let import (c : ctx) ?(shift = 0.0) (foreign : Trace.span list) : unit =
  let ordered =
    List.stable_sort
      (fun (a : Trace.span) (b : Trace.span) ->
        match Float.compare a.Trace.sp_start_s b.Trace.sp_start_s with
        | 0 -> Float.compare b.Trace.sp_dur_s a.Trace.sp_dur_s
        | k -> k)
      foreign
  in
  let stacks : (int, (int * float) list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (sp : Trace.span) ->
      let tid = sp.Trace.sp_tid in
      let start = sp.Trace.sp_start_s +. shift in
      let stop = start +. sp.Trace.sp_dur_s in
      let rec open_parent = function
        | (_, stop') :: rest when stop' <= start -> open_parent rest
        | st -> st
      in
      let st = open_parent (Option.value (Hashtbl.find_opt stacks tid) ~default:[]) in
      let parent = match st with (p, _) :: _ -> p | [] -> c.parent in
      let id = fresh_id c.rc in
      let args =
        List.filter
          (fun (k, _) -> not (List.mem k [ "op"; "id"; "parent"; "layer" ]))
          sp.Trace.sp_args
      in
      add { c with parent } ~id ~layer:(layer_of_foreign sp) ~cat:sp.Trace.sp_cat
        ~args ~tid:(tid + 1) ~name:sp.Trace.sp_name ~start ~dur:sp.Trace.sp_dur_s ();
      Hashtbl.replace stacks tid ((id, stop) :: st))
    ordered

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type node = {
  n_id : int;
  n_parent : int;
  n_op : int;
  n_layer : string;
  n_span : Trace.span;
  mutable n_self : float;  (** credited wall-clock seconds *)
  mutable n_incl : float;  (** self plus the credits of all descendants *)
}

let int_arg k (sp : Trace.span) =
  match List.assoc_opt k sp.Trace.sp_args with Some (Trace.Int i) -> i | _ -> -1

let str_arg k (sp : Trace.span) =
  match List.assoc_opt k sp.Trace.sp_args with Some (Trace.Str s) -> Some s | _ -> None

let node_of (sp : Trace.span) =
  { n_id = int_arg "id" sp; n_parent = int_arg "parent" sp; n_op = int_arg "op" sp;
    n_layer = Option.value (str_arg "layer" sp) ~default:"harness"; n_span = sp;
    n_self = 0.0; n_incl = 0.0 }

let stop_of n = n.n_span.Trace.sp_start_s +. n.n_span.Trace.sp_dur_s

(* Sweep the op's interval: between consecutive span boundaries, credit
   the elapsed time evenly to the open spans that have no open child. *)
let attribute (op : node) (desc : node list) : unit =
  let o0 = op.n_span.Trace.sp_start_s and o1 = stop_of op in
  let timed =
    op
    :: List.filter
         (fun n -> n.n_span.Trace.sp_dur_s > 0.0 && stop_of n > o0
                   && n.n_span.Trace.sp_start_s < o1)
         desc
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace by_id n.n_id n) timed;
  let depths = Hashtbl.create 64 in
  let rec depth n =
    if n.n_id = op.n_id then 0
    else
      match Hashtbl.find_opt depths n.n_id with
      | Some d -> d
      | None ->
        let d =
          match Hashtbl.find_opt by_id n.n_parent with
          | Some p -> 1 + depth p
          | None -> 1
        in
        Hashtbl.replace depths n.n_id d;
        d
  in
  let events =
    List.concat_map
      (fun n ->
        let d = depth n in
        [ (Float.max o0 n.n_span.Trace.sp_start_s, 1, d, n);
          (Float.min o1 (stop_of n), 0, -d, n) ])
      timed
    |> List.sort (fun (t1, k1, d1, _) (t2, k2, d2, _) -> compare (t1, k1, d1) (t2, k2, d2))
  in
  let active = Hashtbl.create 16 and children = Hashtbl.create 16 in
  let leaves = Hashtbl.create 4 in
  let prev = ref o0 in
  List.iter
    (fun (t, kind, _, n) ->
      let dt = t -. !prev in
      let k = Hashtbl.length leaves in
      if dt > 0.0 && k > 0 then
        Hashtbl.iter (fun _ l -> l.n_self <- l.n_self +. (dt /. float_of_int k)) leaves;
      prev := t;
      let parent_active = Hashtbl.mem active n.n_parent && n.n_id <> op.n_id in
      if kind = 1 then begin
        Hashtbl.replace active n.n_id ();
        Hashtbl.replace children n.n_id 0;
        Hashtbl.replace leaves n.n_id n;
        if parent_active then begin
          let c = Hashtbl.find children n.n_parent + 1 in
          Hashtbl.replace children n.n_parent c;
          Hashtbl.remove leaves n.n_parent
        end
      end
      else begin
        Hashtbl.remove active n.n_id;
        Hashtbl.remove leaves n.n_id;
        if parent_active then begin
          let c = Hashtbl.find children n.n_parent - 1 in
          Hashtbl.replace children n.n_parent c;
          if c = 0 then Hashtbl.replace leaves n.n_parent (Hashtbl.find by_id n.n_parent)
        end
      end)
    events;
  let deepest_first =
    List.sort (fun a b -> compare (depth b) (depth a)) timed
  in
  List.iter
    (fun n ->
      n.n_incl <- n.n_incl +. n.n_self;
      if n.n_id <> op.n_id then
        match Hashtbl.find_opt by_id n.n_parent with
        | Some p -> p.n_incl <- p.n_incl +. n.n_incl
        | None -> ())
    deepest_first

(* Every span of the trace with its credits filled in, and the op spans. *)
let analyse (rc : t) : node list * node list =
  let nodes = List.map node_of (Trace.spans rc.trace) in
  let ops = List.filter (fun n -> n.n_span.Trace.sp_cat = "op") nodes in
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun n -> if n.n_span.Trace.sp_cat <> "op" then Hashtbl.add by_op n.n_op n)
    nodes;
  List.iter (fun op -> attribute op (Hashtbl.find_all by_op op.n_op)) ops;
  nodes, ops
