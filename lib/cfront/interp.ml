(** Reference interpreter for the C subset — the software semantics the
    generated hardware is co-simulated against ("the soft nodes, by
    themselves, will have the same behavior on a CPU compared with the whole
    data path on a FPGA", paper §4.2.2).

    [create] compiles the program once. Every name is resolved to a slot of
    its function's frame or of the global frame, or to an array buffer;
    every expression node becomes a closure that leaves its value in a slot
    of the frame, with its operator, truncation, array strides and callee
    resolved. Frames are unboxed rows of words, so a run allocates nothing
    per node, save what a lookup-table call boxes. There is no recursion in
    the subset, so each function owns one frame, reused by every call. *)

open Ast
module Words = Roccc_util.Words

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let default_max_steps = 10_000_000

let dims_size dims = List.fold_left ( * ) 1 dims

let[@inline] get (w : Words.t) i = Bigarray.Array1.unsafe_get w i
let[@inline] set (w : Words.t) i v = Bigarray.Array1.unsafe_set w i v

(* The shift pair of Words.blit_wrapped, repeated so that it inlines into
   every closure: a call across modules would box the value. *)
let[@inline] wrap signed s v =
  if signed then Int64.shift_right (Int64.shift_left v s) s
  else Int64.shift_right_logical (Int64.shift_left v s) s

let[@inline] bool b = if b then 1L else 0L

(* One step per expression node, per statement and per loop iteration,
   counted as the tree is walked. A closure counts at once the steps of
   the leaves it reads, which cannot fail, so the budget runs out at the
   same step as if each were counted alone. *)
type budget = { mutable steps : int; max_steps : int }

let[@inline never] exhausted () = errf "interpreter step budget exhausted"

let[@inline] tick b n =
  let s = b.steps + n in
  b.steps <- s;
  if s > b.max_steps then exhausted ()

let[@inline never] out_of_bounds i d =
  errf "array index %d out of bounds [0;%d)" i d

let[@inline never] divide_by_zero op : unit =
  errf (if op = Div then "division by zero" else "modulo by zero")

(* Inlined into each closure, where [op] is fixed: the match is a jump and
   the value stays unboxed, as long as no branch ends in a call that
   returns a value. *)
let[@inline] apply op (a : int64) (b : int64) : int64 =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if b = 0L then (divide_by_zero op; 0L) else Int64.div a b
  | Mod -> if b = 0L then (divide_by_zero op; 0L) else Int64.rem a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Shr -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b
  | Lt -> bool (a < b)
  | Le -> bool (a <= b)
  | Gt -> bool (a > b)
  | Ge -> bool (a >= b)
  | Eq -> bool (a = b)
  | Ne -> bool (a <> b)
  | Land -> bool (a <> 0L && b <> 0L)
  | Lor -> bool (a <> 0L || b <> 0L)

(* What a name denotes once resolved. *)
type binding =
  | Scalar of Words.t * int * ikind  (** frame, slot, declared kind *)
  | Array of Words.t * int array * ikind  (** data, dimensions, kind *)

(* A compiled expression: after [run], its value is word [slot] of [fr].
   A leaf (constant or variable) has nothing to run and leaves its one
   step to the closure that reads it. *)
type operand = {
  run : (unit -> unit) option;
  fr : Words.t;
  slot : int;
  steps : int;  (** steps the reader counts for it: 1 for a leaf, else 0 *)
}

let nop () = ()
let run_of o = Option.value o.run ~default:nop

exception Return

type fn = {
  func : func;
  frame : Words.t;
  mutable used : int;  (** slots handed out *)
  params : (param * binding) list;
  mutable locals : int list;  (** scalar slots zeroed on entry *)
  named : (string, int) Hashtbl.t;  (** one scalar slot per name *)
  ret : int;  (** slot of the returned value *)
  mutable returned : bool;  (** the last [return] carried a value *)
  mutable active : bool;  (** a call is running: its frame is in use *)
  mutable body : unit -> unit;
}

type runtime = {
  budget : budget;
  globals : (string, binding) Hashtbl.t;
  inits : (unit -> unit) list;  (** constant global initializers *)
  lut_funcs : (string, int64 -> int64) Hashtbl.t;
  funcs : (string * fn) list;
}

(* Compilation context of one function body. *)
type ctx = { rt : runtime; fn : fn; scope : (string, binding) Hashtbl.t }

let fresh c =
  let s = c.fn.used in
  if s >= Bigarray.Array1.dim c.fn.frame then
    invalid_arg "Interp: frame size underestimated";
  c.fn.used <- s + 1;
  s

let leaf fr slot = { run = None; fr; slot; steps = 1 }
let code c f slot = { run = Some f; fr = c.fn.frame; slot; steps = 0 }

(* A node that counts its step and fails: the runtime errors of names the
   program does not bind, kept where the program would meet them. *)
let failing c msg =
  let b = c.rt.budget in
  code c (fun () -> tick b 1; raise (Error msg)) 0

let scalar_error name = function
  | None -> Printf.sprintf "undefined variable %s at runtime" name
  | Some (Array _) -> Printf.sprintf "%s is an array, expected scalar" name
  | Some (Scalar _) -> assert false

let array_error name = function
  | None -> Printf.sprintf "undefined variable %s at runtime" name
  | Some (Scalar _) -> Printf.sprintf "%s is a scalar, expected array" name
  | Some (Array _) -> assert false

(* The slot [name] gets in the function's frame: one for every declaration
   of the name in the function, as blocks do not scope declarations here
   (nor in Semant or the lowering). *)
let scalar_slot c name =
  match Hashtbl.find_opt c.fn.named name with
  | Some s -> s
  | None ->
    let s = fresh c in
    Hashtbl.replace c.fn.named name s;
    c.fn.locals <- s :: c.fn.locals;
    s

let declare_scalar c name k =
  let s = scalar_slot c name in
  Hashtbl.replace c.scope name (Scalar (c.fn.frame, s, k));
  s

(* Row-major offset of evaluated indices, each checked against its
   dimension in order. *)
let flat_offset (dims : int array) (idx : int array) =
  let n = Array.length dims in
  let off = ref 0 in
  for d = 0 to min n (Array.length idx) - 1 do
    let i = idx.(d) in
    if i < 0 || i >= dims.(d) then out_of_bounds i dims.(d);
    off := (!off * dims.(d)) + i
  done;
  if Array.length idx <> n then errf "dimension/index arity mismatch";
  !off

(* Whether [e] compiles to a leaf. *)
let is_leaf c (e : expr) =
  match e with
  | Const _ -> true
  | Var x | Deref x -> (
    match Hashtbl.find_opt c.scope x with Some (Scalar _) -> true | _ -> false)
  | Index _ | Binop _ | Unop _ | Call _ | Cast _ -> false

let rec zero_slots fr = function
  | [] -> ()
  | s :: rest ->
    set fr s 0L;
    zero_slots fr rest

let rec expr c (e : expr) : operand =
  let b = c.rt.budget in
  match e with
  | Const v ->
    let s = fresh c in
    set c.fn.frame s v;
    leaf c.fn.frame s
  | Var x | Deref x -> (
    match Hashtbl.find_opt c.scope x with
    | Some (Scalar (fr, s, _)) -> leaf fr s
    | other -> failing c (scalar_error x other))
  | Index (a, idx) -> index c a idx
  | Binop ((Land | Lor) as op, x, y) ->
    let x = expr c x and y = expr c y in
    let rx = run_of x and ry = run_of y in
    let fx = x.fr and sx = x.slot and fy = y.fr and sy = y.slot in
    let nx = 1 + x.steps and ny = y.steps in
    let fr = c.fn.frame and d = fresh c in
    let conj = op = Land in
    let shortcut = if conj then 0L else 1L in
    code c
      (fun () ->
        tick b nx;
        rx ();
        if (get fx sx <> 0L) = conj then (
          tick b ny;
          ry ();
          set fr d (bool (get fy sy <> 0L)))
        else set fr d shortcut)
      d
  | Binop (op, x, y) -> binop c op (expr c x) (expr c y)
  | Unop (op, x) ->
    let x = expr c x in
    let rx = run_of x and fx = x.fr and sx = x.slot and n = 1 + x.steps in
    let fr = c.fn.frame and d = fresh c in
    code c
      (match op with
      | Neg -> fun () -> tick b n; rx (); set fr d (Int64.neg (get fx sx))
      | Bnot -> fun () -> tick b n; rx (); set fr d (Int64.lognot (get fx sx))
      | Lnot -> fun () -> tick b n; rx (); set fr d (bool (get fx sx = 0L)))
      d
  | Cast (k, x) ->
    let x = expr c x in
    let rx = run_of x and fx = x.fr and sx = x.slot and n = 1 + x.steps in
    let fr = c.fn.frame and d = fresh c in
    let sg = k.signed and sh = Words.shift k.bits in
    code c (fun () -> tick b n; rx (); set fr d (wrap sg sh (get fx sx))) d
  | Call (f, args) -> call c f args

(* The right operand is evaluated before the left: that order decides which
   of two failing operands reports its error. A leaf is read at its turn
   in that order, as a call in the other operand may write a global. *)
and binop c op x y =
  let b = c.rt.budget in
  let fx = x.fr and sx = x.slot and fy = y.fr and sy = y.slot in
  let fr = c.fn.frame and d = fresh c in
  code c
    (match x.run, y.run with
    | None, None ->
      let n = 1 + x.steps + y.steps in
      fun () -> tick b n; set fr d (apply op (get fx sx) (get fy sy))
    | None, Some ry ->
      let n = x.steps in
      fun () ->
        tick b 1;
        ry ();
        tick b n;
        set fr d (apply op (get fx sx) (get fy sy))
    | Some rx, None ->
      let n = 1 + y.steps in
      fun () ->
        tick b n;
        let v = get fy sy in
        rx ();
        set fr d (apply op (get fx sx) v)
    | Some rx, Some ry ->
      fun () ->
        tick b 1;
        ry ();
        rx ();
        set fr d (apply op (get fx sx) (get fy sy)))
    d

and index c a idx =
  let b = c.rt.budget in
  match Hashtbl.find_opt c.scope a with
  | Some (Array (data, dims, _)) -> (
    let fr = c.fn.frame in
    match dims, idx with
    (* A[i + k] and A[i - k], with i a variable and k a constant *)
    | [| n |], [ Binop ((Add | Sub) as op, x, y) ]
      when is_leaf c x && is_leaf c y ->
      let x = expr c x and y = expr c y in
      let fx = x.fr and sx = x.slot and fy = y.fr and sy = y.slot in
      let d = fresh c in
      code c
        (fun () ->
          tick b 4;
          let i = Int64.to_int (apply op (get fx sx) (get fy sy)) in
          if i < 0 || i >= n then out_of_bounds i n;
          set fr d (get data i))
        d
    | [| n |], [ x ] ->
      let x = expr c x in
      let rx = run_of x and fx = x.fr and sx = x.slot and k = 1 + x.steps in
      let d = fresh c in
      code c
        (fun () ->
          tick b k;
          rx ();
          let i = Int64.to_int (get fx sx) in
          if i < 0 || i >= n then out_of_bounds i n;
          set fr d (get data i))
        d
    | _ ->
      let offset = offset_code c dims idx in
      let d = fresh c in
      code c (fun () -> tick b 1; set fr d (get data (offset ()))) d)
  | other -> failing c (array_error a other)

(* Evaluates the indices first to last, then checks and combines them. *)
and offset_code c dims idx : unit -> int =
  let b = c.rt.budget in
  let ops = Array.of_list (List.map (expr c) idx) in
  let runs = Array.map run_of ops in
  let values = Array.make (Array.length ops) 0 in
  fun () ->
    for k = 0 to Array.length ops - 1 do
      let o = ops.(k) in
      tick b o.steps;
      runs.(k) ();
      values.(k) <- Int64.to_int (get o.fr o.slot)
    done;
    flat_offset dims values

and call c f args =
  let b = c.rt.budget in
  let fr = c.fn.frame in
  if String.equal f roccc_load_prev then
    match args with
    | [ Var x ] -> (
      match Hashtbl.find_opt c.scope x with
      | Some (Scalar (fx, sx, _)) -> leaf fx sx
      | other -> failing c (scalar_error x other))
    | _ -> failing c (Printf.sprintf "%s expects one variable" roccc_load_prev)
  else
    match Hashtbl.find_opt c.rt.lut_funcs f, args with
    | Some lut, [ x ] ->
      let x = expr c x in
      let rx = run_of x and fx = x.fr and sx = x.slot and n = 1 + x.steps in
      let d = fresh c in
      code c (fun () -> tick b n; rx (); set fr d (lut (get fx sx))) d
    | Some _, _ ->
      failing c (Printf.sprintf "lookup table %s expects one argument" f)
    | None, _ -> (
      match List.assoc_opt f c.rt.funcs with
      | None -> failing c (Printf.sprintf "call to unknown function %s" f)
      | Some g ->
        (* each argument is copied to a slot of its own as it is evaluated,
           first to last, and bound to the callee's parameters after the
           last *)
        let temps =
          List.map
            (fun a ->
              let o = expr c a in
              let r = run_of o and fo = o.fr and so = o.slot and n = o.steps in
              let t = fresh c in
              (fun () -> tick b n; r (); set fr t (get fo so)), t)
            args
        in
        let eval_args = Array.of_list (List.map fst temps) in
        let bind = bind_params g (List.map snd temps) fr in
        let d = fresh c in
        code c
          (fun () ->
            tick b 1;
            for k = 0 to Array.length eval_args - 1 do
              eval_args.(k) ()
            done;
            bind ();
            set fr d (enter g))
          d)

(* Scalar formals take the argument values in order; pointer formals — the
   paper's multiple-return-value outputs — take no argument and start as
   fresh zeroed cells, local to the call. *)
and bind_params g temps caller =
  let name = g.func.fname in
  let rec plan params temps acc =
    match params, temps with
    | [], [] -> Ok (List.rev acc)
    | ({ ptype = Tint k; _ }, Scalar (fr, s, _)) :: ps, t :: ts ->
      let sg = k.signed and sh = Words.shift k.bits in
      plan ps ts ((fun () -> set fr s (wrap sg sh (get caller t))) :: acc)
    | ({ ptype = Tptr _; _ }, Scalar (fr, s, _)) :: ps, ts ->
      plan ps ts ((fun () -> set fr s 0L) :: acc)
    | ({ ptype = Tarray _; pname }, _) :: _, _ ->
      Error
        (Printf.sprintf
           "function %s: array parameter %s cannot be passed in a call" name
           pname)
    | ({ ptype = Tvoid; pname }, _) :: _, _ ->
      Error (Printf.sprintf "function %s: void parameter %s" name pname)
    | _ -> Error (Printf.sprintf "function %s: arity mismatch" name)
  in
  match plan g.params temps [] with
  | Error msg -> fun () -> raise (Error msg)
  | Ok steps ->
    let steps = Array.of_list steps in
    fun () ->
      for k = 0 to Array.length steps - 1 do
        steps.(k) ()
      done

(* Runs [g]'s body on its frame, whose parameters are bound; returns the
   value of the [return] that ended it, or 0. *)
and enter g : int64 =
  if g.active then errf "function %s: recursive call" g.func.fname;
  zero_slots g.frame g.locals;
  g.active <- true;
  g.returned <- false;
  (match g.body () with
  | () -> ()
  | exception Return -> ()
  | exception e ->
    g.active <- false;
    raise e);
  g.active <- false;
  if g.returned then get g.frame g.ret else 0L

(* A statement reads its operand's value after counting its own step and
   the operand's leaf step at once. *)
let with_value b n (o : operand) (k : Words.t -> int -> unit -> unit) =
  let fo = o.fr and so = o.slot in
  match o.run with
  | None ->
    let n = n + o.steps in
    let f = k fo so in
    fun () -> tick b n; f ()
  | Some r ->
    let f = k fo so in
    fun () -> tick b n; r (); f ()

let sequence (stmts : (unit -> unit) list) : unit -> unit =
  match stmts with
  | [] -> nop
  | [ s ] -> s
  | [ s1; s2 ] -> fun () -> s1 (); s2 ()
  | _ ->
    let a = Array.of_list stmts in
    fun () ->
      for k = 0 to Array.length a - 1 do
        (Array.unsafe_get a k) ()
      done

let rec stmts c ss = sequence (List.map (stmt c) ss)

and stmt c (s : stmt) : unit -> unit =
  let b = c.rt.budget in
  let store fr s (k : ikind) =
    let sg = k.signed and sh = Words.shift k.bits in
    fun fo so () -> set fr s (wrap sg sh (get fo so))
  in
  let fail msg () = tick b 1; raise (Error msg) in
  match s with
  | Sdecl (Tint k, name, init) -> (
    let init = Option.map (expr c) init in
    let s = declare_scalar c name k in
    let fr = c.fn.frame in
    match init with
    | None -> fun () -> tick b 1; set fr s 0L
    | Some o -> with_value b 1 o (store fr s k))
  | Sdecl (Tarray (k, dims), name, _) ->
    let data = Words.create (dims_size dims) in
    Hashtbl.replace c.scope name (Array (data, Array.of_list dims, k));
    fun () -> tick b 1; Bigarray.Array1.fill data 0L
  | Sdecl ((Tptr _ | Tvoid), name, _) ->
    fail (Printf.sprintf "unsupported local declaration %s" name)
  | Sassign (lv, e) -> (
    let v = expr c e in
    match lv with
    | Lvar x | Lderef x -> (
      match Hashtbl.find_opt c.scope x with
      | Some (Scalar (fr, s, k)) -> with_value b 1 v (store fr s k)
      | other ->
        let msg = scalar_error x other in
        with_value b 1 v (fun _ _ () -> raise (Error msg)))
    | Lindex (a, idx) -> (
      match Hashtbl.find_opt c.scope a with
      | Some (Array (data, dims, k)) ->
        let sg = k.signed and sh = Words.shift k.bits in
        (match dims, idx with
        | [| n |], [ i ] when is_leaf c i ->
          let i = expr c i in
          let fi = i.fr and si = i.slot in
          with_value b 1 v (fun fo so ->
              fun () ->
                let x = get fo so in
                tick b 1;
                let i = Int64.to_int (get fi si) in
                if i < 0 || i >= n then out_of_bounds i n;
                set data i (wrap sg sh x))
        | _ ->
          let offset = offset_code c dims idx in
          with_value b 1 v (fun fo so ->
              fun () ->
                let x = get fo so in
                set data (offset ()) (wrap sg sh x)))
      | other ->
        let msg = array_error a other in
        with_value b 1 v (fun _ _ () -> raise (Error msg))))
  | Sif (cond, th, el) ->
    let cond = expr c cond in
    let th = stmts c th in
    let el = stmts c el in
    with_value b 1 cond (fun fo so ->
        fun () -> if get fo so <> 0L then th () else el ())
  | Sfor (h, body) -> (
    let index =
      match Hashtbl.find_opt c.scope h.index with
      | Some (Scalar (fr, s, k)) -> Ok (fr, s, k)
      | Some (Array _) -> Error (Printf.sprintf "loop index %s is an array" h.index)
      | None -> Ok (c.fn.frame, declare_scalar c h.index int32_kind, int32_kind)
    in
    match index with
    | Error msg -> fail msg
    | Ok (fi, si, k) ->
      let init = expr c h.init in
      let bound = expr c h.bound and step = expr c h.step in
      let body = stmts c body in
      let sg = k.signed and sh = Words.shift k.bits in
      let op = h.cond_op in
      let rb = run_of bound and fb = bound.fr and sb = bound.slot in
      let nb = bound.steps in
      let rs = run_of step and fs = step.fr and ss = step.slot in
      let ns = step.steps in
      with_value b 1 init (fun fo so ->
          fun () ->
            set fi si (wrap sg sh (get fo so));
            tick b nb;
            rb ();
            while apply op (get fi si) (get fb sb) <> 0L do
              tick b 1;
              body ();
              tick b ns;
              rs ();
              set fi si (wrap sg sh (Int64.add (get fi si) (get fs ss)));
              tick b nb;
              rb ()
            done))
  | Sreturn None ->
    let g = c.fn in
    fun () ->
      tick b 1;
      g.returned <- false;
      raise_notrace Return
  | Sreturn (Some e) ->
    let g = c.fn in
    (* the value is truncated to the declared return kind, as C does; a
       shift of 0 keeps it whole *)
    let sg, sh =
      match g.func.ret with
      | Tint k -> k.signed, Words.shift k.bits
      | Tvoid | Tptr _ | Tarray _ -> true, 0
    in
    with_value b 1 (expr c e) (fun fo so ->
        fun () ->
          set g.frame g.ret (wrap sg sh (get fo so));
          g.returned <- true;
          raise_notrace Return)
  | Sexpr (Call (f, [ Var x; v ])) when String.equal f roccc_store2next -> (
    match Hashtbl.find_opt c.scope x with
    | Some (Scalar (fr, s, k)) -> with_value b 1 (expr c v) (store fr s k)
    | other -> fail (scalar_error x other))
  | Sexpr e -> with_value b 1 (expr c e) (fun _ _ -> nop)

(* An upper bound on the slots a body takes: one per parameter, statement
   and expression node (two for a call argument), and the return slot. *)
let frame_size (f : func) =
  let count = fold_stmts (fun n _ -> n + 1) (fun n _ -> n + 2) 0 f.body in
  List.length f.params + count + 1

let create ?(max_steps = default_max_steps) ?(lut_funcs = []) (prog : program) :
    runtime =
  let global_frame = Words.create (List.length prog.globals) in
  let globals = Hashtbl.create 16 in
  List.iteri
    (fun s g ->
      match g.gtype with
      | Tint k -> Hashtbl.replace globals g.gname (Scalar (global_frame, s, k))
      | Tarray (k, dims) ->
        Hashtbl.replace globals g.gname
          (Array (Words.create (dims_size dims), Array.of_list dims, k))
      | Tptr _ | Tvoid -> errf "unsupported global %s" g.gname)
    prog.globals;
  (* an initializer sets the name's binding, as the program sees it *)
  let inits =
    List.filter_map
      (fun g ->
        match g.ginit, Hashtbl.find_opt globals g.gname with
        | Some init, Some (Scalar (fr, s, k)) ->
          Some
            (match const_value init with
            | Some v ->
              let v = wrap k.signed (Words.shift k.bits) v in
              fun () -> set fr s v
            | None ->
              fun () -> errf "global %s initializer must be a constant" g.gname)
        | _, _ -> None)
      prog.globals
  in
  let luts = Hashtbl.create 4 in
  List.iter (fun (n, f) -> Hashtbl.replace luts n f) lut_funcs;
  let shell (f : func) =
    let frame = Words.create (frame_size f) in
    let used = ref 0 in
    let named = Hashtbl.create 8 in
    let scalar p k =
      let s = !used in
      incr used;
      Hashtbl.replace named p.pname s;
      Scalar (frame, s, k)
    in
    let params =
      List.map
        (fun p ->
          ( p,
            match p.ptype with
            | Tarray (k, dims) ->
              Array (Words.create (dims_size dims), Array.of_list dims, k)
            | Tint k | Tptr k -> scalar p k
            | Tvoid -> scalar p int32_kind ))
        f.params
    in
    f.fname,
    { func = f;
      frame;
      used = !used + 1;
      params;
      locals = [];
      named;
      ret = !used;
      returned = false;
      active = false;
      body = nop }
  in
  let rt =
    { budget = { steps = 0; max_steps };
      globals;
      inits;
      lut_funcs = luts;
      funcs = List.map shell prog.funcs }
  in
  List.iter
    (fun (_, fn) ->
      let scope = Hashtbl.copy globals in
      List.iter
        (fun (p, binding) ->
          if p.ptype <> Tvoid then Hashtbl.replace scope p.pname binding)
        fn.params;
      fn.body <- stmts { rt; fn; scope } fn.func.body)
    rt.funcs;
  rt

(* Re-evaluate global initializers (constants only) — used by [run]. *)
let init_globals rt = List.iter (fun f -> f ()) rt.inits

(* ------------------------------------------------------------------ *)
(* Kernel invocation                                                   *)
(* ------------------------------------------------------------------ *)

(** Result of running a kernel: the function return value (if non-void), the
    values written through pointer outputs, and the final contents of every
    array parameter (output arrays are read back from here). *)
type outcome = {
  return_value : int64 option;
  pointer_outputs : (string * int64) list;
  arrays : (string * int64 array) list;
}

(** Run function [fname] with scalar arguments [scalars] (by name) and array
    arguments [arrays] (by name; contents copied in). Pointer parameters
    need no argument — they are outputs. *)
let run ?(scalars = []) ?(arrays = []) (rt : runtime) (fname : string) : outcome
    =
  rt.budget.steps <- 0;
  init_globals rt;
  let g =
    match List.assoc_opt fname rt.funcs with
    | Some g -> g
    | None -> errf "no function named %s" fname
  in
  List.iter
    (fun (p, binding) ->
      match p.ptype, binding with
      | Tint k, Scalar (fr, s, _) ->
        let v =
          match List.assoc_opt p.pname scalars with
          | Some v -> v
          | None -> errf "missing scalar argument %s" p.pname
        in
        set fr s (wrap k.signed (Words.shift k.bits) v)
      | Tptr _, Scalar (fr, s, _) -> set fr s 0L
      | Tarray (k, _), Array (data, _, _) -> (
        let n = Bigarray.Array1.dim data in
        match List.assoc_opt p.pname arrays with
        | Some a ->
          if Array.length a <> n then
            errf "array argument %s has %d elements, expected %d" p.pname
              (Array.length a) n;
          let sg = k.signed and sh = Words.shift k.bits in
          Array.iteri (fun i v -> set data i (wrap sg sh v)) a
        | None -> Bigarray.Array1.fill data 0L)
      | _ -> errf "void parameter %s" p.pname)
    g.params;
  let value = enter g in
  { return_value = (if g.returned then Some value else None);
    pointer_outputs =
      List.filter_map
        (fun (p, binding) ->
          match p.ptype, binding with
          | Tptr _, Scalar (fr, s, _) -> Some (p.pname, get fr s)
          | _ -> None)
        g.params;
    arrays =
      List.filter_map
        (fun (p, binding) ->
          match binding with
          | Array (data, _, _) -> Some (p.pname, Words.to_array data)
          | Scalar _ -> None)
        g.params }

(** Read a global scalar's current value (after a {!run}); [None] when the
    name is not a scalar global. Used by the profiler's counters. *)
let read_global (rt : runtime) (name : string) : int64 option =
  match Hashtbl.find_opt rt.globals name with
  | Some (Scalar (fr, s, _)) -> Some (get fr s)
  | Some (Array _) | None -> None

(** Convenience: parse, check and run a source string in one step. *)
let run_source ?(luts = []) ?(lut_funcs = []) ?scalars ?arrays src fname =
  let prog = Parser.parse_program src in
  let _env = Semant.check_program ~luts prog in
  let rt = create ~lut_funcs prog in
  run ?scalars ?arrays rt fname
