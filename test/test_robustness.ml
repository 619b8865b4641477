(* Robustness: the front end fails cleanly (typed errors, never crashes) on
   malformed input; printers and dumps produce well-formed text. *)

open Roccc_cfront
module Driver = Roccc_core.Driver

(* ------------------------------------------------------------------ *)
(* Parser fuzz: arbitrary bytes raise only the declared error types    *)
(* ------------------------------------------------------------------ *)

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_parser_total =
  QCheck.Test.make ~count:300 ~name:"parser never crashes on random bytes"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Parser.parse_program s with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true)

let prop_parser_total_c_like =
  (* token soup from C fragments is more likely to reach deep parser code *)
  let fragment =
    QCheck.Gen.oneofl
      [ "int"; "void"; "for"; "if"; "else"; "return"; "("; ")"; "{"; "}";
        "["; "]"; ";"; ","; "+"; "-"; "*"; "/"; "="; "=="; "<"; ">>"; "x";
        "A"; "42"; "0x1f"; "uint8"; "&&"; "~"; "!" ]
  in
  let gen =
    QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 60) fragment))
  in
  QCheck.Test.make ~count:300 ~name:"parser never crashes on token soup"
    (QCheck.make gen ~print:(fun s -> s))
    (fun s ->
      match Parser.parse_program s with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true)

let prop_driver_clean_errors =
  (* the driver wraps everything in Driver.Error or succeeds *)
  let gen =
    QCheck.Gen.oneofl
      [ "void k() {}";
        "void k(int A[4]) { A[0] = A[1]; }";
        "void k(int A[4], int C[4]) { int i; for (i=0;i<4;i++) C[i] = \
         A[zzz]; }";
        "int k(int x) { return k(x); }";
        "void k(int A[4][4][4]) { }";
        "void k(int* p) { *p = *q; }";
        "void k(int A[8], int C[8]) { int i; for (i=0;i<8;i++) C[i] = \
         A[i*i]; }";
        "garbage $$$";
        "void k(int A[8], int C[8]) { int i; for (i=0;i<8;i++) { C[i] = \
         A[i] / A[i+1]; } }" ]
  in
  QCheck.Test.make ~count:50 ~name:"driver raises only Driver.Error"
    (QCheck.make gen ~print:(fun s -> s))
    (fun src ->
      match Driver.compile ~entry:"k" src with
      | _ -> true
      | exception Driver.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Error messages                                                      *)
(* ------------------------------------------------------------------ *)

let error_of src =
  match Driver.compile ~entry:"k" src with
  | _ -> Alcotest.fail "expected a compile error"
  | exception Driver.Error msg -> msg

let contains needle hay =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_error_mentions_position () =
  let msg = error_of "void k() { int x\n  x = 1; }" in
  Alcotest.(check bool) ("position in: " ^ msg) true
    (contains "parse error at" msg)

let test_error_mentions_variable () =
  let msg = error_of "void k(int a, int* o) { *o = a + mystery; }" in
  Alcotest.(check bool) ("names the variable: " ^ msg) true
    (contains "mystery" msg)

let test_error_mentions_recursion () =
  let msg = error_of "int k(int n) { return k(n - 1); }" in
  Alcotest.(check bool) ("mentions recursion: " ^ msg) true
    (contains "recursion" msg)

let test_error_nonaffine () =
  let msg =
    error_of
      "void k(int A[8], int B[8], int C[8]) { int i; for (i=0;i<8;i++) C[i] \
       = A[B[i]]; }"
  in
  Alcotest.(check bool) ("mentions affine: " ^ msg) true
    (contains "affine" msg)

let test_error_trailing_loop_rejected () =
  (* a second unfused loop must not be silently dropped *)
  let msg =
    match
      Driver.compile
        ~options:
          { Driver.default_options with
            Driver.disabled_passes = [ "loop-fusion" ] }
        ~entry:"k"
        "void k(int A[8], int B[8], int C[8]) { int i; for (i=0;i<8;i++) \
         B[i] = A[i]; for (i=0;i<8;i++) C[i] = B[i]; }"
    with
    | _ -> Alcotest.fail "expected rejection of the second loop"
    | exception Driver.Error m -> m
  in
  Alcotest.(check bool) ("mentions fusion: " ^ msg) true
    (contains "fuse" msg)

let test_error_pre_loop_compute_rejected () =
  let msg =
    error_of
      "void k(int A[8], int C[8], int s) { int t; t = s * 2; int i; for \
       (i=0;i<8;i++) C[i] = A[i] + t; }"
  in
  Alcotest.(check bool) ("mentions the restriction: " ^ msg) true
    (contains "before the kernel loop" msg)

(* Accesses past the declared bounds used to compile and then spin or
   crash the simulator; they are compile errors naming the array, the
   offset and the bound. *)
let test_error_out_of_bounds () =
  let kernel body =
    "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { "
    ^ body ^ " } }"
  in
  List.iter
    (fun (body, needles) ->
      let msg = error_of (kernel body) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "%S in: %s" needle msg) true
            (contains needle msg))
        needles)
    [ ("B[i] = A[i+9];", [ "array A"; "offset +9"; "index 16"; "A[8]" ]);
      ("B[i] = A[i] + A[i-1];", [ "array A"; "offset -1"; "index -1"; "A[8]" ]);
      ("B[i+3] = A[i];", [ "array B"; "write"; "offset +3"; "B[8]" ]) ];
  (* the last in-bounds offsets still compile *)
  ignore
    (Driver.compile ~entry:"k"
       "void k(int A[8], int B[8]) { int i; for (i = 1; i < 8; i = i + 1) \
        { B[i] = A[i] + A[i-1]; } }");
  ignore
    (Driver.compile ~entry:"k"
       "void k(int A[12], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) \
        { B[i] = A[i+4]; } }")

let test_error_zero_step () =
  let msg =
    error_of
      "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 0) { \
       B[i] = A[i]; } }"
  in
  Alcotest.(check bool) ("names the zero step: " ^ msg) true
    (contains "loop i has a zero step" msg)

let test_driver_fuses_two_filter_loops () =
  (* with fusion on (the default), the pair compiles and verifies *)
  let src =
    "void pair(int8 A[20], int16 C[16], int16 E[16]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i++) { C[i] = 3*A[i] + 5*A[i+1] - A[i+4]; }\n\
    \  for (i = 0; i < 16; i++) { E[i] = 2*A[i] + 4*A[i+2] + A[i+3]; }\n\
     }\n"
  in
  let c = Driver.compile ~entry:"pair" src in
  Alcotest.(check int) "one shared window" 1
    (List.length c.Driver.kernel.Roccc_hir.Kernel.windows);
  Alcotest.(check int) "two outputs" 2
    (List.length c.Driver.kernel.Roccc_hir.Kernel.outputs);
  let arrays = [ "A", Array.init 20 (fun i -> Int64.of_int ((i * 11) - 90)) ] in
  Alcotest.(check (list string)) "verifies" [] (Driver.verify ~arrays c)

let test_loop_carried_param_rejected () =
  (* a loop-carried parameter has no compile-time initial value: the
     compiler must refuse rather than seed the feedback register wrongly *)
  let msg =
    error_of
      "void k(int A[8], int s, int* o) {\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i++) { s = s + A[i]; }\n\
      \  *o = s;\n\
       }"
  in
  Alcotest.(check bool) ("mentions initializer: " ^ msg) true
    (contains "initializer" msg)

let test_negative_global_initializer () =
  (* constant-expression initializers (unary minus, arithmetic) work *)
  let src =
    "int base = -(1 << 6);\n\
     void k(int A[4], int C[4]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 4; i++) { C[i] = A[i] + base; }\n\
     }"
  in
  let c = Driver.compile ~entry:"k" src in
  let arrays = [ "A", [| 100L; 200L; 300L; 400L |] ] in
  Alcotest.(check (list string)) "verifies" [] (Driver.verify ~arrays c);
  let r = Driver.simulate ~arrays c in
  Alcotest.(check int64) "100 - 64" 36L
    (List.assoc "C" r.Roccc_hw.Engine.output_arrays).(0)

let test_error_missing_entry () =
  let msg =
    match Driver.compile ~entry:"nope" "void k() {}" with
    | _ -> Alcotest.fail "expected error"
    | exception Driver.Error m -> m
  in
  Alcotest.(check bool) ("names the function: " ^ msg) true
    (contains "nope" msg)

(* ------------------------------------------------------------------ *)
(* Printers / dumps                                                    *)
(* ------------------------------------------------------------------ *)

let test_proc_printing () =
  let c =
    Driver.compile ~entry:"fir"
      "void fir(int A[12], int C[8]) { int i; for (i=0;i<8;i++) C[i] = \
       A[i] + A[i+4]; }"
  in
  let text = Roccc_vm.Proc.to_string c.Driver.proc in
  Alcotest.(check bool) "proc header" true (contains "proc fir_dp" text);
  Alcotest.(check bool) "shows inputs" true (contains "in  A0" text);
  Alcotest.(check bool) "shows outputs" true (contains "out Tmp0" text);
  Alcotest.(check bool) "shows a block" true (contains "L0:" text)

let test_dot_output_balanced () =
  let c =
    Driver.compile ~entry:"if_else"
      "void if_else(int x1, int x2, int* x3) { int a; if (x1 < x2) a = x1; \
       else a = x2; *x3 = a; }"
  in
  let dot = Roccc_datapath.Graph.to_dot c.Driver.dp in
  Alcotest.(check bool) "digraph" true (contains "digraph" dot);
  Alcotest.(check bool) "closing brace" true
    (String.length dot > 0 && String.sub dot (String.length dot - 2) 2 = "}\n");
  (* every node referenced by an edge is declared *)
  let declared = ref [] and used = ref [] in
  String.split_on_char '\n' dot
  |> List.iter (fun line ->
         if contains "[shape=" line then begin
           match String.index_opt line 'n' with
           | Some i -> (
             let rest = String.sub line i (String.length line - i) in
             match String.index_opt rest ' ' with
             | Some j -> declared := String.sub rest 0 j :: !declared
             | None -> ())
           | None -> ()
         end
         else if contains " -> " line then
           String.split_on_char ' ' (String.trim line)
           |> List.iter (fun tok ->
                  let tok =
                    if String.length tok > 0 && tok.[String.length tok - 1] = ';'
                    then String.sub tok 0 (String.length tok - 1)
                    else tok
                  in
                  if String.length tok > 1 && tok.[0] = 'n' then
                    used := tok :: !used));
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "edge endpoint %s declared" u)
        true
        (List.mem u !declared))
    !used

let test_kernel_describe () =
  let c = Roccc_core.Kernels.compile Roccc_core.Kernels.mul_acc in
  let text = Roccc_hir.Kernel.describe c.Driver.kernel in
  Alcotest.(check bool) "loop line" true (contains "loop i: 64 iterations" text);
  Alcotest.(check bool) "feedback line" true (contains "feedback acc" text);
  Alcotest.(check bool) "scalar output" true
    (contains "scalar out (last value)" text)

let suites =
  [ "robustness.fuzz",
    [ qcheck_case prop_parser_total;
      qcheck_case prop_parser_total_c_like;
      qcheck_case prop_driver_clean_errors ];
    "robustness.errors",
    [ Alcotest.test_case "parse error carries position" `Quick
        test_error_mentions_position;
      Alcotest.test_case "undeclared variable named" `Quick
        test_error_mentions_variable;
      Alcotest.test_case "recursion reported" `Quick
        test_error_mentions_recursion;
      Alcotest.test_case "non-affine access reported" `Quick
        test_error_nonaffine;
      Alcotest.test_case "trailing loop rejected" `Quick
        test_error_trailing_loop_rejected;
      Alcotest.test_case "pre-loop compute rejected" `Quick
        test_error_pre_loop_compute_rejected;
      Alcotest.test_case "out-of-bounds accesses rejected" `Quick
        test_error_out_of_bounds;
      Alcotest.test_case "zero loop step rejected" `Quick
        test_error_zero_step;
      Alcotest.test_case "fusion merges filter pair" `Quick
        test_driver_fuses_two_filter_loops;
      Alcotest.test_case "loop-carried parameter rejected" `Quick
        test_loop_carried_param_rejected;
      Alcotest.test_case "constant-expression global init" `Quick
        test_negative_global_initializer;
      Alcotest.test_case "missing entry named" `Quick
        test_error_missing_entry ];
    "robustness.printers",
    [ Alcotest.test_case "VM procedure printing" `Quick test_proc_printing;
      Alcotest.test_case "DOT output well-formed" `Quick
        test_dot_output_balanced;
      Alcotest.test_case "kernel description" `Quick test_kernel_describe ] ]
