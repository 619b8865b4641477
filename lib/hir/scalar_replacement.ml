(** Scalar replacement (paper §4.1, Figure 3): isolates memory accesses from
    calculation. Array window reads become scalar loads at the top of the
    loop body, array writes become scalar stores at the bottom, and the pure
    computation in between is exported as the data-path function handed to
    the back-end. The loop statement and the load/store pattern feed the
    controller and smart-buffer generators. *)

open Roccc_cfront.Ast
module K = Kernel

module S = Set.Make (String)
module M = Map.Make (String)
module Diag = Roccc_util.Diag

(* ------------------------------------------------------------------ *)
(* Shape analysis: pre-statements, loop nest (<= 2 deep), post-statements *)
(* ------------------------------------------------------------------ *)

type nest = {
  dims : for_header list;  (* outermost first *)
  body : stmt list;        (* innermost body *)
}

let rec split_body (stmts : stmt list) : stmt list * (nest * stmt list) option
    =
  match stmts with
  | [] -> [], None
  | Sfor (h, inner) :: rest -> (
    (* Is [inner] itself just a loop (2-D nest)? Allow leading decls. *)
    let _decls, inner_rest =
      let rec take acc = function
        | (Sdecl (_, _, None) as d) :: tl -> take (d :: acc) tl
        | tl -> List.rev acc, tl
      in
      take [] inner
    in
    match inner_rest with
    | [ Sfor (h2, body2) ] -> [], Some ({ dims = [ h; h2 ]; body = body2 }, rest)
    | _ -> [], Some ({ dims = [ h ]; body = inner }, rest))
  | s :: rest ->
    let pre, nest = split_body rest in
    s :: pre, nest

(* Constant-normalize a loop header into a Kernel.loop_dim. *)
let normalize_header (h : for_header) : K.loop_dim =
  if h.step = Const 0L then
    Diag.failf "scalar replacement"
      "loop %s has a zero step, so it never advances" h.index;
  match Loop_opt.iteration_values h with
  | Some values ->
    let lower = match values with v :: _ -> v | [] -> 0 in
    let step =
      match values with a :: b :: _ -> b - a | [ _ ] | [] -> 1
    in
    { K.index = h.index; lower; count = List.length values; step }
  | None ->
    Diag.failf "scalar replacement"
      "loop %s must have constant bounds after constant folding" h.index

(* ------------------------------------------------------------------ *)
(* Affine index analysis                                               *)
(* ------------------------------------------------------------------ *)

(* Match an index expression against "loop_index + constant". *)
let affine_offset ~(loop_index : string) (e : expr) : int option =
  match e with
  | Var x when String.equal x loop_index -> Some 0
  | Binop (Add, Var x, Const c) when String.equal x loop_index ->
    Some (Int64.to_int c)
  | Binop (Add, Const c, Var x) when String.equal x loop_index ->
    Some (Int64.to_int c)
  | Binop (Sub, Var x, Const c) when String.equal x loop_index ->
    Some (-Int64.to_int c)
  | _ -> None

(* Offset vector of a multi-dim access w.r.t. the loop indices, dimension d
   matched against loop dimension d. With no loop indices (a fully-unrolled
   block kernel) the offsets are the literal constant positions. *)
let offset_vector ~(indices : string list) (idx : expr list) : int list option
    =
  if indices = [] then
    List.fold_right
      (fun e acc ->
        match e, acc with
        | Const c, Some l -> Some (Int64.to_int c :: l)
        | (Const _ | Var _ | Index _ | Deref _ | Binop _ | Unop _ | Call _
          | Cast _), _ ->
          None)
      idx (Some [])
  else if List.length idx <> List.length indices then None
  else
    let rec loop acc indices idx =
      match indices, idx with
      | [], [] -> Some (List.rev acc)
      | ix :: indices', e :: idx' -> (
        match affine_offset ~loop_index:ix e with
        | Some c -> loop (c :: acc) indices' idx'
        | None -> None)
      | _ -> None
    in
    loop [] indices idx

(* Paper-style window scalar names: A0, A1 ... for 1-D consecutive offsets,
   A_r_c for 2-D (negative offsets rendered m<k>). *)
let scalar_name array offset =
  let part c = if c < 0 then Printf.sprintf "m%d" (-c) else string_of_int c in
  match offset with
  | [ c ] when c >= 0 -> Printf.sprintf "%s%d" array c
  | parts -> Printf.sprintf "%s_%s" array (String.concat "_" (List.map part parts))

(* ------------------------------------------------------------------ *)
(* Read-before-write analysis for feedback detection                   *)
(* ------------------------------------------------------------------ *)

(* Scalars read in [stmts] before being definitely written in the same
   iteration — candidates for loop-carried feedback. *)
let upward_exposed_reads (stmts : stmt list) : S.t =
  let exposed = ref S.empty in
  let note_reads written e =
    List.iter
      (fun x -> if not (S.mem x written) then exposed := S.add x !exposed)
      (expr_reads e)
  in
  let rec go written stmts =
    List.fold_left
      (fun written s ->
        match s with
        | Sdecl (_, n, init) ->
          Option.iter (note_reads written) init;
          S.add n written
        | Sassign (lv, e) ->
          (match lv with
          | Lindex (_, idx) -> List.iter (note_reads written) idx
          | Lvar _ | Lderef _ -> ());
          note_reads written e;
          (match lv with
          | Lvar x | Lderef x -> S.add x written
          | Lindex _ -> written)
        | Sif (c, th, el) ->
          note_reads written c;
          let w_th = go written th in
          let w_el = go written el in
          S.union written (S.inter w_th w_el)
        | Sfor (h, body) ->
          note_reads written h.init;
          note_reads written h.bound;
          note_reads written h.step;
          ignore (go written body);
          written
        | Sreturn e ->
          Option.iter (note_reads written) e;
          written
        | Sexpr (Call (f, Var x :: args)) when String.equal f roccc_store2next
          ->
          List.iter (note_reads written) args;
          S.add x written
        | Sexpr e ->
          note_reads written e;
          written)
      written stmts
  in
  ignore (go S.empty stmts);
  !exposed

let written_scalars (stmts : stmt list) : S.t =
  fold_stmts
    (fun acc s ->
      match s with
      | Sassign (Lvar x, _) | Sassign (Lderef x, _) -> S.add x acc
      | Sexpr (Call (f, Var x :: _)) when String.equal f roccc_store2next ->
        S.add x acc
      | Sassign _ | Sdecl _ | Sif _ | Sfor _ | Sreturn _ | Sexpr _ -> acc)
    (fun acc _ -> acc)
    S.empty stmts

let declared_scalars (stmts : stmt list) : S.t =
  fold_stmts
    (fun acc s ->
      match s with
      | Sdecl (_, n, _) -> S.add n acc
      | Sassign _ | Sif _ | Sfor _ | Sreturn _ | Sexpr _ -> acc)
    (fun acc _ -> acc)
    S.empty stmts

(* ------------------------------------------------------------------ *)
(* The transformation                                                  *)
(* ------------------------------------------------------------------ *)

type accesses = {
  mutable reads : (string * int list) list;   (* (array, offset) reads *)
  mutable writes : (string * int list) list;  (* (array, offset) writes *)
}

(* Environment describing the original function. *)
type fenv = {
  arrays : (ikind * int list) M.t;   (* array params *)
  scalars : ikind M.t;               (* scalar params *)
  pointers : ikind M.t;              (* pointer-out params *)
  globals : (ikind * int64) M.t;     (* integer globals with init *)
}

let fenv_of (prog : program) (f : func) : fenv =
  let arrays, scalars, pointers =
    List.fold_left
      (fun (a, s, p) prm ->
        match prm.ptype with
        | Tarray (k, dims) -> M.add prm.pname (k, dims) a, s, p
        | Tint k -> a, M.add prm.pname k s, p
        | Tptr k -> a, s, M.add prm.pname k p
        | Tvoid -> a, s, p)
      (M.empty, M.empty, M.empty) f.params
  in
  let globals =
    List.fold_left
      (fun g gl ->
        match gl.gtype with
        | Tint k ->
          let init =
            match gl.ginit with
            | Some e -> Option.value (const_value e) ~default:0L
            | None -> 0L
          in
          M.add gl.gname (k, init) g
        | Tarray _ | Tptr _ | Tvoid -> g)
      M.empty prog.globals
  in
  { arrays; scalars; pointers; globals }

module Elements = Set.Make (struct
  type t = string * int list

  let compare = compare
end)

let offset_text = function
  | [ c ] -> Printf.sprintf "%+d" c
  | cs -> "(" ^ String.concat "," (List.map (Printf.sprintf "%+d") cs) ^ ")"

(* The affine array elements [stmts] writes, one per write site, in
   program order. *)
let rec write_sites ~indices ~(env : fenv) (stmts : stmt list) :
    (string * int list) list =
  List.concat_map
    (fun s ->
      match s with
      | Sassign (Lindex (arr, idx), _) when M.mem arr env.arrays ->
        Option.to_list
          (Option.map (fun o -> arr, o) (offset_vector ~indices idx))
      | Sif (_, th, el) ->
        write_sites ~indices ~env th @ write_sites ~indices ~env el
      | Sassign _ | Sdecl _ | Sfor _ | Sreturn _ | Sexpr _ -> [])
    stmts

(* The array elements every path through [stmts] writes. *)
let rec definitely_written ~indices ~(env : fenv) (written : Elements.t)
    (stmts : stmt list) : Elements.t =
  List.fold_left
    (fun w s ->
      match s with
      | Sassign (Lindex (arr, idx), _) when M.mem arr env.arrays -> (
        match offset_vector ~indices idx with
        | Some o -> Elements.add (arr, o) w
        | None -> w)
      | Sif (_, th, el) ->
        Elements.inter
          (definitely_written ~indices ~env w th)
          (definitely_written ~indices ~env w el)
      | Sassign _ | Sdecl _ | Sfor _ | Sreturn _ | Sexpr _ -> w)
    written stmts

(* Collect and rewrite array accesses in the loop body. Returns the body with
   reads replaced by window scalars and writes replaced by Tmp scalars,
   plus the recorded accesses and (write-port expressions).

   Each written element gets one output port and one Tmp scalar. An
   element written once keeps Figure 3b's in-place declaration; one
   written at several sites (both branches of an if, or a write then an
   overwrite) has its scalar declared at the top of the body, so
   if-conversion muxes the writes and the last write on each path wins.
   An element some path leaves unwritten is rejected: C keeps its old
   value there, which the output stream cannot express. *)
let rewrite_body ~indices ~(env : fenv) (body : stmt list) =
  let acc = { reads = []; writes = [] } in
  let sites = write_sites ~indices ~env body in
  acc.writes <-
    List.fold_left
      (fun els el -> if List.mem el els then els else els @ [ el ])
      [] sites;
  let every_path = definitely_written ~indices ~env Elements.empty body in
  List.iter
    (fun (arr, offset) ->
      if not (Elements.mem (arr, offset) every_path) then
        Diag.failf "scalar replacement"
          "array %s: the element at offset %s is written on some paths \
              only; write it on every path (C would keep its old value)"
          arr (offset_text offset))
    acc.writes;
  let ports =
    List.mapi (fun n el -> el, Printf.sprintf "Tmp%d" n) acc.writes
  in
  let several el = List.length (List.filter (( = ) el) sites) > 1 in
  let kind_of arr = fst (M.find arr env.arrays) in
  let outputs =
    List.map
      (fun ((arr, offset), port) ->
        let kind, dims = M.find arr env.arrays in
        port, kind, `Array (arr, dims, offset))
      ports
  in
  let hoisted =
    List.filter_map
      (fun (((arr, _) as el), port) ->
        if several el then Some (Sdecl (Tint (kind_of arr), port, None))
        else None)
      ports
  in
  let record_read arr offset =
    if not (List.mem (arr, offset) acc.reads) then
      acc.reads <- acc.reads @ [ arr, offset ]
  in
  let replace_reads e =
    map_expr
      (fun e' ->
        match e' with
        | Index (a, idx) when M.mem a env.arrays -> (
          match offset_vector ~indices idx with
          | Some offset ->
            record_read a offset;
            Var (scalar_name a offset)
          | None ->
            Diag.failf "scalar replacement"
              "array access %s[...] is not affine in the loop indices" a)
        | _ -> e')
      e
  in
  let rec rw stmts = List.concat_map rw_stmt stmts
  and rw_stmt s =
    match s with
    | Sassign (Lindex (arr, idx), e) when M.mem arr env.arrays -> (
      match offset_vector ~indices idx with
      | Some offset ->
        let port = List.assoc (arr, offset) ports in
        let e' = replace_reads e in
        (* Figure 3b keeps both: Tmp0 = expr; C[i] = Tmp0; *)
        let assign =
          [ Sassign (Lvar port, e'); Sassign (Lindex (arr, idx), Var port) ]
        in
        if several (arr, offset) then assign
        else Sdecl (Tint (kind_of arr), port, None) :: assign
      | None ->
        Diag.failf "scalar replacement"
          "array write %s[...] is not affine in the loop indices" arr)
    | Sassign (lv, e) -> [ Sassign (lv, replace_reads e) ]
    | Sdecl (t, n, init) -> [ Sdecl (t, n, Option.map replace_reads init) ]
    | Sif (c, th, el) -> [ Sif (replace_reads c, rw th, rw el) ]
    | Sfor _ ->
      Diag.failf "scalar replacement" "unexpected nested loop in innermost body"
    | Sreturn _ ->
      Diag.failf "scalar replacement"
        "return inside kernel loop is not supported"
    | Sexpr e -> [ Sexpr (replace_reads e) ]
  in
  let body' = hoisted @ rw body in
  body', acc, outputs

(* Every access must stay inside its array's declared dimensions over the
   whole iteration space: the smart buffer and the output address
   generator would walk off the array at run time otherwise. With no
   loops (a block kernel) an offset is the accessed position itself. *)
let check_bounds ~(env : fenv) ~(loops : K.loop_dim list) ~(what : string)
    (accesses : (string * int list) list) : unit =
  let index_range d =
    match List.nth_opt loops d with
    | Some (l : K.loop_dim) ->
      let last = l.K.lower + ((l.K.count - 1) * l.K.step) in
      (min l.K.lower last, max l.K.lower last)
    | None -> (0, 0)
  in
  if List.for_all (fun (l : K.loop_dim) -> l.K.count > 0) loops then
    List.iter
      (fun (arr, offset) ->
        let _, dims = M.find arr env.arrays in
        List.iteri
          (fun d c ->
            let lo, hi = index_range d in
            match List.nth_opt dims d with
            | Some n when lo + c < 0 || hi + c >= n ->
              Diag.failf "scalar replacement"
                "array %s: %s at offset %+d%s reaches index %d, outside \
                    its declared bound %s%s"
                arr what c
                (if List.length dims > 1 then
                   Printf.sprintf " in dimension %d" d
                 else "")
                (if lo + c < 0 then lo + c else hi + c)
                arr
                (String.concat "" (List.map (Printf.sprintf "[%d]") dims))
            | Some _ | None -> ())
          offset)
      accesses

(* Insert the load statements (A0 = A[i]; ...) at the top of the body. *)
let load_stmts ~indices ~(env : fenv) reads =
  List.map
    (fun (arr, offset) ->
      let kind, _dims = M.find arr env.arrays in
      let idx =
        if indices = [] then
          List.map (fun c -> Const (Int64.of_int c)) offset
        else
          List.map2
            (fun ix c ->
              if c = 0 then Var ix
              else if c > 0 then Binop (Add, Var ix, Const (Int64.of_int c))
              else Binop (Sub, Var ix, Const (Int64.of_int (-c))))
            indices offset
      in
      Sdecl (Tint kind, scalar_name arr offset, Some (Index (arr, idx))))
    reads

(* ------------------------------------------------------------------ *)
(* Kernel construction                                                 *)
(* ------------------------------------------------------------------ *)

(* Pure combinational kernel: no loop, no arrays. The dp function is the
   original function itself. *)
let pure_kernel (env : fenv) (f : func) : K.t =
  if not (M.is_empty env.arrays) then
    Diag.failf "scalar replacement"
      "function %s has array parameters but no loop" f.fname;
  let outputs =
    List.filter_map
      (fun p ->
        match p.ptype with
        | Tptr k ->
          Some { K.port = p.pname; port_kind = k;
                 target = K.Out_scalar { name = p.pname; kind = k } }
        | Tint _ | Tarray _ | Tvoid -> None)
      f.params
  in
  let scalar_inputs =
    List.filter
      (fun p -> match p.ptype with Tint _ -> true | _ -> false)
      f.params
  in
  { K.kname = f.fname;
    dp = { f with fname = f.fname ^ "_dp" };
    transformed = f;
    original = f;
    loops = [];
    windows = [];
    scalar_inputs;
    outputs;
    feedback = [] }

(* Fully-unrolled block kernel: no loop, but array accesses at constant
   positions (the shape full unrolling produces, e.g. an 8-point DCT). One
   "iteration" consumes the whole block and produces every output at once —
   hence the paper's 8-outputs-per-cycle DCT throughput. *)
let block_kernel (env : fenv) (f : func) : K.t =
  let body_no_ret =
    List.filter (function Sreturn None -> false | _ -> true) f.body
  in
  let body', acc, write_ports = rewrite_body ~indices:[] ~env body_no_ret in
  check_bounds ~env ~loops:[] ~what:"read" acc.reads;
  check_bounds ~env ~loops:[] ~what:"write" acc.writes;
  let loads = load_stmts ~indices:[] ~env acc.reads in
  let transformed = { f with body = loads @ body' } in
  let exposed = upward_exposed_reads body' in
  let scalar_inputs =
    List.filter
      (fun p ->
        match p.ptype with
        | Tint _ -> S.mem p.pname exposed
        | Tarray _ | Tptr _ | Tvoid -> false)
      f.params
  in
  let windows =
    let by_array = Hashtbl.create 4 in
    List.iter
      (fun (arr, offset) ->
        let cur = Option.value (Hashtbl.find_opt by_array arr) ~default:[] in
        Hashtbl.replace by_array arr (cur @ [ offset ]))
      acc.reads;
    Hashtbl.fold
      (fun arr offsets ws ->
        let kind, dims = M.find arr env.arrays in
        let offsets = List.sort_uniq compare offsets in
        { K.win_array = arr;
          win_kind = kind;
          win_dims = dims;
          win_offsets = offsets;
          win_scalars = List.map (fun o -> o, scalar_name arr o) offsets }
        :: ws)
      by_array []
    |> List.sort (fun a b -> String.compare a.K.win_array b.K.win_array)
  in
  let array_outputs =
    List.map
      (fun (port, kind, `Array (arr, dims, offset)) ->
        { K.port;
          port_kind = kind;
          target = K.Out_array { arr; kind; dims; offset } })
      write_ports
  in
  let pointer_outputs =
    List.filter_map
      (fun p ->
        match p.ptype with
        | Tptr k ->
          Some { K.port = p.pname; port_kind = k;
                 target = K.Out_scalar { name = p.pname; kind = k } }
        | Tint _ | Tarray _ | Tvoid -> None)
      f.params
  in
  let outputs = array_outputs @ pointer_outputs in
  let is_array_port n =
    List.exists (fun o -> String.equal o.K.port n) array_outputs
  in
  let rec to_dp_stmts stmts =
    List.concat_map
      (fun s ->
        match s with
        | Sassign (Lindex _, _) -> []
        | Sdecl (Tint _, n, None) when is_array_port n -> []
        | Sassign (Lvar n, e) when is_array_port n -> [ Sassign (Lderef n, e) ]
        | Sif (c, th, el) -> [ Sif (c, to_dp_stmts th, to_dp_stmts el) ]
        | s -> [ s ])
      stmts
  in
  let window_params =
    List.concat_map
      (fun w ->
        List.map
          (fun (_, name) -> { pname = name; ptype = Tint w.K.win_kind })
          w.K.win_scalars)
      windows
  in
  let ptr_params =
    List.filter (fun p -> match p.ptype with Tptr _ -> true | _ -> false)
      f.params
  in
  let tmp_params =
    List.map
      (fun o -> { pname = o.K.port; ptype = Tptr o.K.port_kind })
      array_outputs
  in
  let dp =
    { fname = f.fname ^ "_dp";
      ret = Tvoid;
      params = window_params @ scalar_inputs @ ptr_params @ tmp_params;
      body = to_dp_stmts body' }
  in
  { K.kname = f.fname;
    dp;
    transformed;
    original = f;
    loops = [];
    windows;
    scalar_inputs;
    outputs;
    feedback = [] }

(* Main entry: turn a checked, inlined, folded function into a kernel. *)
let run (prog : program) (f : func) : K.t =
  let env = fenv_of prog f in
  let pre, rest = split_body f.body in
  match rest with
  | None ->
    if M.is_empty env.arrays then
      (* No loop, no arrays: a purely combinational data path. *)
      pure_kernel env f
    else block_kernel env f
  | Some (nest, post) ->
    (* The kernel shape is: constant scalar setup, ONE loop nest, scalar
       exports. Anything else before/after the nest would be silently
       dropped from the hardware — reject it loudly instead. *)
    List.iter
      (fun s ->
        match s with
        | Sdecl ((Tint _ | Tarray _), _, _) -> ()
        | Sassign (Lvar _, Const _) -> ()
        | Sassign _ | Sdecl _ | Sif _ | Sfor _ | Sreturn _ | Sexpr _ ->
          Diag.failf "scalar replacement"
            "unsupported statement before the kernel loop (only declarations \
             and constant scalar initializations may precede it)")
      pre;
    List.iter
      (fun s ->
        match s with
        | Sassign (Lderef _, Var _) -> ()
        | Sreturn None -> ()
        | Sfor _ ->
          Diag.failf "scalar replacement"
            "a second loop follows the kernel loop — fuse the loops or \
             compile them as separate kernels"
        | Sassign _ | Sdecl _ | Sif _ | Sreturn (Some _) | Sexpr _ ->
          Diag.failf "scalar replacement"
            "unsupported statement after the kernel loop (only scalar \
             exports '*out = var;' may follow it)")
      post;
    let indices = List.map (fun h -> h.index) nest.dims in
    let loop_dims = List.map normalize_header nest.dims in
    let body', acc, write_ports = rewrite_body ~indices ~env nest.body in
    check_bounds ~env ~loops:loop_dims ~what:"read" acc.reads;
    check_bounds ~env ~loops:loop_dims ~what:"write" acc.writes;
    let loads = load_stmts ~indices ~env acc.reads in
    let new_body = loads @ body' in
    (* ---- transformed whole function (Figure 3b) ---- *)
    let rebuild_nest body =
      List.fold_right (fun h inner -> [ Sfor (h, inner) ]) nest.dims body
    in
    let transformed =
      { f with body = pre @ rebuild_nest new_body @ post }
    in
    (* ---- classify scalars ---- *)
    let exposed = upward_exposed_reads body' in
    let written = written_scalars body' in
    let declared_in_body = declared_scalars body' in
    let index_set = S.of_list indices in
    (* feedback: read-before-write in the body, defined outside the body *)
    let feedback_names =
      S.elements
        (S.filter
           (fun x ->
             S.mem x written
             && (not (S.mem x declared_in_body))
             && not (S.mem x index_set))
           exposed)
    in
    let feedback =
      List.map
        (fun x ->
          match M.find_opt x env.globals with
          | Some (k, init) -> { K.fb_name = x; fb_kind = k; fb_init = init }
          | None -> (
            (* local initialized before the loop: find constant init *)
            let kind =
              match
                List.find_map
                  (function
                    | Sdecl (Tint k, n, _) when String.equal n x -> Some k
                    | _ -> None)
                  pre
              with
              | Some k -> k
              | None -> (
                match M.find_opt x env.scalars with
                | Some k -> k
                | None -> int32_kind)
            in
            let init =
              List.fold_left
                (fun acc s ->
                  match s with
                  | Sdecl (_, n, Some e) when String.equal n x -> const_value e
                  | Sassign (Lvar n, e) when String.equal n x -> const_value e
                  | _ -> acc)
                None pre
            in
            match init with
            | Some v -> { K.fb_name = x; fb_kind = kind; fb_init = v }
            | None ->
              Diag.failf "scalar replacement"
                "loop-carried scalar %s needs a constant initializer before \
                 the loop"
                x))
        feedback_names
    in
    let feedback_set = S.of_list feedback_names in
    (* live-in scalars: exposed reads that are parameters (not feedback) *)
    let scalar_inputs =
      List.filter
        (fun p ->
          match p.ptype with
          | Tint _ -> S.mem p.pname exposed && not (S.mem p.pname feedback_set)
          | Tarray _ | Tptr _ | Tvoid -> false)
        f.params
    in
    (* ---- windows ---- *)
    let windows =
      let by_array = Hashtbl.create 4 in
      List.iter
        (fun (arr, offset) ->
          let cur = Option.value (Hashtbl.find_opt by_array arr) ~default:[] in
          Hashtbl.replace by_array arr (cur @ [ offset ]))
        acc.reads;
      Hashtbl.fold
        (fun arr offsets ws ->
          let kind, dims = M.find arr env.arrays in
          let offsets = List.sort_uniq compare offsets in
          { K.win_array = arr;
            win_kind = kind;
            win_dims = dims;
            win_offsets = offsets;
            win_scalars = List.map (fun o -> o, scalar_name arr o) offsets }
          :: ws)
        by_array []
      |> List.sort (fun a b -> String.compare a.K.win_array b.K.win_array)
    in
    (* ---- outputs ---- *)
    let array_outputs =
      List.map
        (fun (port, kind, `Array (arr, dims, offset)) ->
          { K.port;
            port_kind = kind;
            target = K.Out_array { arr; kind; dims; offset } })
        write_ports
    in
    (* scalar outputs: post-loop "*out = v" where v is loop-written *)
    let scalar_outputs =
      List.filter_map
        (fun s ->
          match s with
          | Sassign (Lderef out, Var v) when S.mem v written ->
            let kind =
              match M.find_opt out env.pointers with
              | Some k -> k
              | None -> int32_kind
            in
            Some (out, v, kind)
          | _ -> None)
        post
    in
    let out_counter =
      Roccc_util.Id_gen.create ~start:(List.length array_outputs) ()
    in
    let scalar_output_ports =
      List.map
        (fun (out, v, kind) ->
          let port = Printf.sprintf "Tmp%d" (Roccc_util.Id_gen.fresh out_counter) in
          ( { K.port; port_kind = kind;
              target = K.Out_scalar { name = out; kind } },
            (port, v) ))
        scalar_outputs
    in
    let outputs = array_outputs @ List.map fst scalar_output_ports in
    (* ---- data-path function (Figure 3c / 4c) ---- *)
    (* dp body: the rewritten computation, minus loads (they become params),
       with array stores dropped and output temps written through pointers;
       plus per-iteration exports of scalar outputs. *)
    let is_array_port n =
      List.exists (fun o -> String.equal o.K.port n) array_outputs
    in
    let rec to_dp_stmts stmts =
      List.concat_map
        (fun s ->
          match s with
          | Sassign (Lindex _, _) -> []  (* store handled by buffer *)
          | Sdecl (Tint _, n, None) when is_array_port n -> []
          | Sassign (Lvar n, e) when is_array_port n ->
            [ Sassign (Lderef n, e) ]
          | Sif (c, th, el) -> [ Sif (c, to_dp_stmts th, to_dp_stmts el) ]
          | s -> [ s ])
        stmts
    in
    let dp_body =
      to_dp_stmts body'
      @ List.map
          (fun (_, (port, v)) -> Sassign (Lderef port, Var v))
          scalar_output_ports
    in
    let window_params =
      List.concat_map
        (fun w ->
          List.map
            (fun (_, name) -> { pname = name; ptype = Tint w.K.win_kind })
            w.K.win_scalars)
        windows
    in
    let out_params =
      List.map (fun o -> { pname = o.K.port; ptype = Tptr o.K.port_kind }) outputs
    in
    let dp =
      { fname = f.fname ^ "_dp";
        ret = Tvoid;
        params = window_params @ scalar_inputs @ out_params;
        body = dp_body }
    in
    { K.kname = f.fname;
      dp;
      transformed;
      original = f;
      loops = loop_dims;
      windows;
      scalar_inputs;
      outputs;
      feedback }
