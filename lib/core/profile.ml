(** The profiling tool set (paper Figure 1 "Code Profiling", §2 and
    reference [10]): runs an application through the interpreter with
    instrumented loops and ranks them by dynamic operation count, so the
    frequently executing kernels — the hardware candidates — are identified
    before compilation.

    Loops are instrumented by injecting a counter-increment into each body;
    per-iteration weights (arithmetic operations, memory accesses, branch
    statements) come from a static walk of the body, giving the paper's
    "computational density / control density" characterization (§4: "ROCCC
    targets high computational density, low control density
    applications"). *)

module Ast = Roccc_cfront.Ast
module Parser = Roccc_cfront.Parser
module Semant = Roccc_cfront.Semant
module Interp = Roccc_cfront.Interp
module Diag = Roccc_util.Diag

(** One profiled loop site. *)
type site = {
  site_id : int;
  in_function : string;
  loop_path : string;  (** e.g. "fir/i" or "wavelet/r/j" *)
  static_ops : int;    (** arithmetic/logic operations per iteration *)
  memory_accesses : int;  (** array reads + writes per iteration *)
  branch_statements : int;  (** if statements per iteration *)
  mutable iterations : int64;  (** measured dynamic trip count *)
}

type profile = {
  sites : site list;  (** sorted by dynamic operations, descending *)
  total_dynamic_ops : int64;
}

let dynamic_ops (s : site) : int64 =
  Int64.mul s.iterations (Int64.of_int (max 1 s.static_ops))

let fraction (p : profile) (s : site) : float =
  if Int64.equal p.total_dynamic_ops 0L then 0.0
  else Int64.to_float (dynamic_ops s) /. Int64.to_float p.total_dynamic_ops

(** Operations per memory access — the paper's computational density. *)
let computational_density (s : site) : float =
  float_of_int s.static_ops /. float_of_int (max 1 s.memory_accesses)

(* ------------------------------------------------------------------ *)
(* Static weights                                                      *)
(* ------------------------------------------------------------------ *)

(* (arith/logic ops, memory accesses); address arithmetic inside array
   indices is NOT counted as data-path work — it belongs to the address
   generators in the compiled circuit. *)
let rec expr_ops (e : Ast.expr) : int * int =
  match e with
  | Ast.Const _ | Ast.Var _ | Ast.Deref _ -> 0, 0
  | Ast.Index (_, _) -> 0, 1
  | Ast.Binop (_, a, b) ->
    let oa, ma = expr_ops a and ob, mb = expr_ops b in
    1 + oa + ob, ma + mb
  | Ast.Unop (_, a) | Ast.Cast (_, a) ->
    let o, m = expr_ops a in
    (match e with Ast.Cast _ -> o, m | _ -> 1 + o, m)
  | Ast.Call (_, args) ->
    List.fold_left
      (fun (o, m) a ->
        let oa, ma = expr_ops a in
        o + oa, m + ma)
      (1, 0) args

(* Weights of one loop body, EXCLUDING nested loops (they are their own
   sites). *)
let body_weights (stmts : Ast.stmt list) : int * int * int =
  let rec go (ops, mem, branches) stmts =
    List.fold_left
      (fun (ops, mem, branches) s ->
        match s with
        | Ast.Sdecl (_, _, init) ->
          let o, m =
            match init with Some e -> expr_ops e | None -> 0, 0
          in
          ops + o, mem + m, branches
        | Ast.Sassign (lv, e) ->
          let o, m = expr_ops e in
          let m_extra =
            match lv with
            | Ast.Lindex (_, idx) ->
              1 + List.fold_left (fun acc i -> acc + snd (expr_ops i)) 0 idx
            | Ast.Lvar _ | Ast.Lderef _ -> 0
          in
          ops + o, mem + m + m_extra, branches
        | Ast.Sif (c, th, el) ->
          let o, m = expr_ops c in
          go (ops + o, mem + m, branches + 1) (th @ el)
        | Ast.Sfor _ -> ops, mem, branches  (* nested loop = its own site *)
        | Ast.Sreturn (Some e) | Ast.Sexpr e ->
          let o, m = expr_ops e in
          ops + o, mem + m, branches
        | Ast.Sreturn None -> ops, mem, branches)
      (ops, mem, branches) stmts
  in
  go (0, 0, 0) stmts

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let counter_name id = Printf.sprintf "__prof_%d" id

(* Walk every function, assigning site ids to loops (outer to inner) and
   injecting counter increments as the first body statement. *)
let instrument (prog : Ast.program) : Ast.program * site list =
  let sites = ref [] in
  let next = ref 0 in
  let rec instr_stmts fname path stmts =
    List.map
      (fun s ->
        match s with
        | Ast.Sfor (h, body) ->
          let id = !next in
          incr next;
          (* the id suffix disambiguates same-named loops in one function *)
          let loop_path = Printf.sprintf "%s/%s@%d" path h.Ast.index id in
          let ops, mem, branches = body_weights body in
          sites :=
            !sites
            @ [ { site_id = id;
                  in_function = fname;
                  loop_path;
                  static_ops = ops;
                  memory_accesses = mem;
                  branch_statements = branches;
                  iterations = 0L } ];
          let bump =
            Ast.Sassign
              ( Ast.Lvar (counter_name id),
                Ast.Binop (Ast.Add, Ast.Var (counter_name id), Ast.Const 1L) )
          in
          Ast.Sfor (h, bump :: instr_stmts fname loop_path body)
        | Ast.Sif (c, th, el) ->
          Ast.Sif (c, instr_stmts fname path th, instr_stmts fname path el)
        | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sreturn _ | Ast.Sexpr _ -> s)
      stmts
  in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        { f with Ast.body = instr_stmts f.Ast.fname f.Ast.fname f.Ast.body })
      prog.Ast.funcs
  in
  let counters =
    List.map
      (fun s ->
        { Ast.gtype = Ast.Tint { Ast.signed = true; bits = 32 };
          gname = counter_name s.site_id;
          ginit = Some (Ast.Const 0L) })
      !sites
  in
  { Ast.globals = prog.Ast.globals @ counters; funcs; pipelines = prog.Ast.pipelines }, !sites

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

(** Profile [entry] of the program in [source] on the given inputs. *)
let analyze ?(luts = []) ?(lut_funcs = []) ?(scalars = []) ?(arrays = [])
    ~(entry : string) (source : string) : profile =
  let prog = Parser.parse_program source in
  let _ = Semant.check_program ~luts prog in
  let prog', sites = instrument prog in
  if not (List.exists (fun (f : Ast.func) -> f.Ast.fname = entry) prog'.Ast.funcs)
  then Diag.failf "profile" "no function named %s" entry;
  let rt = Interp.create ~lut_funcs prog' in
  let _ = Interp.run rt entry ~scalars ~arrays in
  List.iter
    (fun s ->
      match Interp.read_global rt (counter_name s.site_id) with
      | Some v -> s.iterations <- v
      | None -> ())
    sites;
  let total =
    List.fold_left (fun acc s -> Int64.add acc (dynamic_ops s)) 0L sites
  in
  let sorted =
    List.sort
      (fun a b -> Int64.compare (dynamic_ops b) (dynamic_ops a))
      sites
  in
  { sites = sorted; total_dynamic_ops = total }

(** The hardware candidates: innermost hot loops covering at least
    [threshold] of the dynamic operations (default 10%), ranked. *)
let kernel_candidates ?(threshold = 0.1) (p : profile) : site list =
  List.filter (fun s -> fraction p s >= threshold) p.sites

let report (p : profile) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "%-24s %12s %10s %8s %10s %10s\n" "loop" "iterations" "dyn ops"
       "share" "ops/mem" "branches");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %12Ld %10Ld %7.1f%% %10.2f %10d\n" s.loop_path
           s.iterations (dynamic_ops s)
           (100.0 *. fraction p s)
           (computational_density s)
           s.branch_statements))
    p.sites;
  (match kernel_candidates p with
  | [] -> Buffer.add_string buf "no hardware candidates above threshold\n"
  | cs ->
    Buffer.add_string buf "hardware candidates (>= 10% of dynamic ops):\n";
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  %s  (%.1f%%, density %.2f%s)\n" s.loop_path
             (100.0 *. fraction p s)
             (computational_density s)
             (if s.branch_statements > 0 then ", control-heavy" else "")))
      cs);
  Buffer.contents buf
