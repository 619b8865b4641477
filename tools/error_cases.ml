(* Rejections pinned by test/golden/errors.txt: one case per module that
   Driver.compile, Driver.simulate/interpret or Net.plan can reach, each
   with the line `roccc` prints for it (after "roccc: ") and, for the
   compiles a batch or serve job runs, the message its result carries.
   tools/gen_golden.exe writes the file and test/test_robustness.ml
   checks it. *)

module Driver = Roccc_core.Driver
module Net = Roccc_net.Net
module Pass = Roccc_core.Pass

type case = { name : string; run : unit -> unit; batch : bool }

let loop_kernel body =
  "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { "
  ^ body ^ " } }"

(* The pass manager's checks are fixed here, whatever ROCCC_VERIFY_IR and
   ROCCC_DIFFERENTIAL say, so that the file pins one set of messages. *)
let config ?(differential = false) () =
  { (Pass.default_config ()) with
    Pass.verify_ir = false;
    differential;
    on_dump = (fun _ _ -> ()) }

let compile_k ?differential ?(options = Driver.default_options) source =
  Driver.compile ~config:(config ?differential ()) ~options ~entry:"k" source

let compile ?differential ?options name source =
  { name;
    run = (fun () -> ignore (compile_k ?differential ?options source));
    batch = true }

let simulate name ?(arrays = []) source =
  { name;
    run = (fun () -> ignore (Driver.simulate ~arrays (compile_k source)));
    batch = false }

let interpret name ?(arrays = []) source =
  { name;
    run = (fun () -> ignore (Driver.interpret ~arrays (compile_k source)));
    batch = false }

let plan ~pipeline source = Net.plan ~config:(config ()) ~name:pipeline source

let net name ~pipeline source =
  { name; run = (fun () -> ignore (plan ~pipeline source)); batch = false }

let net_verify name ?depths ~pipeline source =
  { name;
    run =
      (fun () ->
        ignore
          (Net.verify ?depths
             ~arrays:[ "A", Array.init 12 Int64.of_int ]
             (plan ~pipeline source)));
    batch = false }

let two_stage_net stages =
  "void f(int A[12], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { \
   B[i] = A[i] + A[i+4]; } }\n\
   void g(int C[8], int D[8]) { int i; for (i = 0; i < 8; i = i + 1) { \
   D[i] = C[i] * 3; } }\n\
   void gs(int C[8], int D[8], int s) { int i; for (i = 0; i < 8; i = i + \
   1) { D[i] = C[i] * s; } }\n\
   void h(int x, int* y) { *y = x + 1; }\n\
   void two(int P[8], int Q[8], int R[8]) { int i; for (i = 0; i < 8; i = \
   i + 1) { R[i] = P[i] + Q[i]; } }\n"
  ^ Printf.sprintf "pipeline p = %s;\n" stages

let cases : case list =
  [ compile "lexer: literal overflow"
      "void k(int* o) { *o = 99999999999999999999; }";
    compile "lexer: unexpected character" "void k(int* o) { *o = 1 @ 2; }";
    compile "parser: expected an expression"
      "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { \
       B[i] = A[i] + ; } }";
    compile "parser: no function" "int g;";
    compile "semant: undeclared variable"
      "void k(int a, int* o) { *o = a + q; }";
    compile "semant: shadowing declaration"
      "void k(int t, int* o) { int t; t = 1; *o = t; }";
    compile "semant: missing entry" "void f(int* o) { *o = 1; }";
    compile "semant: recursion" "int k(int n) { return k(n - 1); }";
    compile "inline: return not final"
      "int g(int x) { if (x > 0) { return 1; } return 2; }\n\
       void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { \
       B[i] = g(A[i]); } }";
    compile "loop-opt: unroll factor does not divide the trip count"
      ~options:{ Driver.default_options with Driver.unroll_outer_factor = 3 }
      (loop_kernel "B[i] = A[i];");
    compile "loop-opt: unfused second loop"
      ~options:
        { Driver.default_options with
          Driver.disabled_passes = [ "loop-fusion" ] }
      "void k(int A[8], int B[8], int C[8]) { int i; for (i = 0; i < 8; \
       i = i + 1) { B[i] = A[i]; } for (i = 0; i < 8; i = i + 1) { C[i] = \
       B[i]; } }";
    compile "scalar replacement: read out of bounds"
      (loop_kernel "B[i] = A[i+9];");
    compile "scalar replacement: write out of bounds"
      (loop_kernel "B[i+3] = A[i];");
    compile "scalar replacement: written on some paths only"
      (loop_kernel "if (A[i] > 3) { B[i] = A[i] + 1; }");
    compile "scalar replacement: zero loop step"
      "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 0) { \
       B[i] = A[i]; } }";
    compile "scalar replacement: non-affine access"
      "void k(int A[8], int B[8], int C[8]) { int i; for (i = 0; i < 8; \
       i = i + 1) { C[i] = A[B[i]]; } }";
    compile "scalar replacement: statement before the loop"
      "void k(int A[8], int C[8], int s) { int t; t = s * 2; int i; for (i = \
       0; i < 8; i = i + 1) { C[i] = A[i] + t; } }";
    compile "lowering: residual call"
      "void k(int A[8], int* o) { int i; int acc; acc = 0; for (i = 0; i < \
       8; i = i + 1) { acc = ROCCC_load_prev(acc) + A[i]; } *o = acc; }";
    compile "feedback: two stores"
      "void k(int A[8], int* o) { int i; int acc; acc = 0; for (i = 0; i < \
       8; i = i + 1) { acc = ROCCC_load_prev(acc) + A[i]; \
       ROCCC_store2next(acc, acc); ROCCC_store2next(acc, acc); } *o = acc; }";
    compile "scalar replacement: loop-carried parameter"
      "void k(int A[8], int s, int* o) { int i; for (i = 0; i < 8; i = i + \
       1) { s = s + A[i]; } *o = s; }";
    compile "lowering: unsupported local declaration"
      (loop_kernel "int T[2]; T[0] = A[i]; B[i] = T[0];");
    compile "pass manager: unknown disabled pass"
      ~options:
        { Driver.default_options with Driver.disabled_passes = [ "nosuch" ] }
      (loop_kernel "B[i] = A[i];");
    compile "differential: division by zero" ~differential:true
      (loop_kernel "B[i] = A[i] / (A[i] - A[i]);");
    simulate "simulation: missing input array" (loop_kernel "B[i] = A[i];");
    interpret "interpretation: division by zero"
      ~arrays:[ "A", Array.make 12 1L; "C", Array.make 8 0L ]
      "void k(int A[12], int C[8], int B[8]) { int i; for (i = 0; i < 8; i \
       = i + 1) { B[i] = A[i] / C[i]; } }";
    interpret "interpretation: step budget"
      "void k(int A[1000000], int* o) { int i; int acc; acc = 0; for (i = \
       0; i < 1000000; i = i + 1) { acc = acc + A[i] * 3 + A[i] * 5 + A[i] * \
       7; } *o = acc; }";
    net "network: no pipeline" ~pipeline:"q" (two_stage_net "f -> g");
    net "network: stage not a kernel" ~pipeline:"p" (two_stage_net "f -> h");
    net "network: two input arrays" ~pipeline:"p" (two_stage_net "f -> two");
    net_verify "network: stage misses a scalar" ~pipeline:"p"
      (two_stage_net "f -> gs");
    net_verify "network: channel too shallow" ~depths:[ 0 ] ~pipeline:"p"
      (two_stage_net "f -> g");
    net "network: stage fails to compile" ~pipeline:"r"
      (two_stage_net "f -> g"
      ^ "void bad(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + \
         1) { B[i] = A[i+9]; } }\npipeline r = f -> bad;\n") ]

let render (c : case) : string =
  match c.run () with
  | () -> Printf.sprintf "%s\n  accepted\n" c.name
  | exception e ->
    let text describe =
      Option.value (describe e) ~default:("uncaught " ^ Printexc.to_string e)
    in
    Printf.sprintf "%s\n  roccc: %s\n%s" c.name (text Pass.error_message)
      (if c.batch then
         Printf.sprintf "  batch: %s\n"
           (text Roccc_service.Pool.describe_error)
       else "")

let golden () : string = String.concat "" (List.map render cases)
