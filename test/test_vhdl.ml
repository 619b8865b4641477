(* Tests for VHDL generation: rendering, structural lint of generated
   designs, ROM emission. *)

open Roccc_cfront
open Roccc_hir
open Roccc_vm
open Roccc_analysis
open Roccc_datapath
module V = Roccc_vhdl.Ast
module Gen = Roccc_vhdl.Gen
module Lint = Roccc_vhdl.Lint

let fir_source = Roccc_core.Kernels.paper_fir_source

let if_else_source = Roccc_core.Kernels.paper_if_else_source

let acc_source = Roccc_core.Kernels.paper_acc_source

let design_of ?(luts_sig = []) ?(luts = []) src name =
  let prog = Parser.parse_program src in
  let _ = Semant.check_program ~luts:luts_sig prog in
  let f = List.find (fun g -> g.Ast.fname = name) prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc = Lower.lower_kernel ~luts:luts_sig k in
  let _ = Ssa.convert proc in
  let dp = Builder.build proc in
  let w = Widths.infer dp in
  let p = Pipeline.build dp w in
  Gen.generate ~luts p

let contains needle hay =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

(* ------------------------------------------------------------------ *)
(* Rendering basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_render_entity () =
  let d = design_of fir_source "fir" in
  let text = V.to_string d in
  Alcotest.(check bool) "has library clause" true
    (contains "use ieee.numeric_std.all;" text);
  Alcotest.(check bool) "top entity present" true
    (contains "entity fir_dp is" text);
  Alcotest.(check bool) "window port A0" true (contains "A0 : in" text);
  Alcotest.(check bool) "output port Tmp0" true (contains "Tmp0 : out" text);
  Alcotest.(check bool) "clock port" true (contains "clk : in std_logic" text)

let test_one_component_per_node () =
  (* "ROCCC generates one VHDL component for each CFG node that goes to
     hardware" — every data-path node yields an entity. *)
  let prog = Parser.parse_program if_else_source in
  let _ = Semant.check_program prog in
  let f = List.hd prog.Ast.funcs in
  let k = Feedback.annotate (Scalar_replacement.run prog f) in
  let proc = Lower.lower_kernel k in
  let _ = Ssa.convert proc in
  let dp = Builder.build proc in
  let w = Widths.infer dp in
  let p = Pipeline.build dp w in
  let d = Gen.generate p in
  (* nodes + top *)
  Alcotest.(check int) "units = nodes + top"
    (List.length dp.Graph.nodes + 1)
    (List.length d.V.units)

let test_feedback_register_emitted () =
  let d = design_of acc_source "acc" in
  let text = V.to_string d in
  Alcotest.(check bool) "feedback signal" true (contains "fb_sum" text);
  Alcotest.(check bool) "feedback next" true (contains "fb_sum_next" text);
  Alcotest.(check bool) "reset initializes feedback" true
    (contains "if rst = '1' then" text)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let test_lint_fir () =
  let d = design_of fir_source "fir" in
  let r = Lint.check d in
  Alcotest.(check bool) "units checked" true (r.Lint.units_checked >= 2);
  Alcotest.(check bool) "instances checked" true (r.Lint.instances_checked >= 1)

let test_lint_if_else () =
  let d = design_of if_else_source "if_else" in
  ignore (Lint.check d)

let test_lint_accumulator () =
  let d = design_of acc_source "acc" in
  ignore (Lint.check d)

let test_lint_nested () =
  let src =
    "void nested(int x, int y, int* o) {\n\
    \  int r;\n\
    \  r = 0;\n\
    \  if (x > 0) {\n\
    \    if (y > 0) { r = x + y; } else { r = x - y; }\n\
    \  } else {\n\
    \    r = y;\n\
    \  }\n\
    \  *o = r;\n\
     }"
  in
  ignore (Lint.check (design_of src "nested"))

let test_lint_catches_undeclared () =
  let bad =
    { V.design_name = "bad";
      units =
        [ { V.unit_entity =
              { V.entity_name = "bad";
                entity_ports =
                  [ { V.port_name = V.Id "o"; port_dir = V.Dir_out;
                      port_type = V.Signed 8 } ] };
            unit_arch =
              { V.arch_name = "rtl";
                of_entity = "bad";
                signals = [];
                components = [];
                body =
                  [ V.Assign
                      ( V.Id "o",
                        V.Binop (V.Add, V.Ref (V.Id "missing_signal"), V.Int 1) )
                  ] } } ];
      roms = [] }
  in
  match Lint.check bad with
  | exception Roccc_util.Diag.Error { where = "vhdl lint"; _ } -> ()
  | _ -> Alcotest.fail "lint must reject undeclared names"

let test_lint_catches_multiple_drivers () =
  let bad =
    { V.design_name = "bad2";
      units =
        [ { V.unit_entity =
              { V.entity_name = "bad2";
                entity_ports =
                  [ { V.port_name = V.Id "a"; port_dir = V.Dir_in;
                      port_type = V.Signed 8 };
                    { V.port_name = V.Id "o"; port_dir = V.Dir_out;
                      port_type = V.Signed 8 } ] };
            unit_arch =
              { V.arch_name = "rtl";
                of_entity = "bad2";
                signals = [];
                components = [];
                body =
                  [ V.Assign (V.Id "o", V.Ref (V.Id "a"));
                    V.Assign (V.Id "o", V.Ref (V.Id "a")) ] } } ];
      roms = [] }
  in
  match Lint.check bad with
  | exception Roccc_util.Diag.Error { where = "vhdl lint"; _ } -> ()
  | _ -> Alcotest.fail "lint must reject multiple drivers"

(* One negative case per rule, each with its exact message. [unit_of]
   builds a unit from port (name, dir) pairs, signal names (texts, read
   with [V.id] as the generator reads C names), component declarations
   and a body; every type is 8-bit signed. *)
let unit_of ?(signals = []) ?(components = []) name ports body =
  let port (n, dir) =
    { V.port_name = V.id n; port_dir = dir; port_type = V.Signed 8 }
  in
  { V.unit_entity = { V.entity_name = name; entity_ports = List.map port ports };
    unit_arch =
      { V.arch_name = "rtl";
        of_entity = name;
        signals =
          List.map (fun s -> { V.sig_name = V.id s; sig_type = V.Signed 8 }) signals;
        components =
          List.map (fun (c, ps) -> c, List.map port ps) components;
        body } }

let design_of_units units = { V.design_name = "t"; units; roms = [] }

let lint_error units =
  match Lint.check (design_of_units units) with
  | exception Roccc_util.Diag.Error { where = "vhdl lint"; msg; _ } -> msg
  | _ -> Alcotest.fail "lint accepted a bad design"

(* [t <== e] assigns [e] to the signal named [t]; [r s] reads [s] *)
let r s = V.Ref (V.Id s)
let ( <== ) t e = V.Assign (V.Id t, e)

(* a leaf entity [leaf] with ports x : in, y : out *)
let leaf = unit_of "leaf" [ "x", V.Dir_in; "y", V.Dir_out ] [ "y" <== r "x" ]

let leaf_component = [ "leaf", [ "x", V.Dir_in; "y", V.Dir_out ] ]

let instance ?(component = "leaf") port_map =
  V.Instance
    { inst_label = "u0";
      component;
      port_map = List.map (fun (f, a) -> V.Id f, r a) port_map }

(* a process on clk that assigns [assignments] and, under rst,
   [reset_assignments] *)
let process assignments reset_assignments =
  V.Clocked_process
    { label = "p";
      clock = V.Id "clk";
      reset = Some (V.Id "rst");
      assignments;
      reset_assignments }

let lint_cases =
  [ ( "duplicate declaration",
      [ unit_of ~signals:[ "s"; "a" ] "top" [ "a", V.Dir_in ] [] ],
      "top: a declared more than once" );
    ( "undeclared name",
      [ unit_of "top" [ "o", V.Dir_out ] [ "o" <== V.Binop (V.Add, r "missing", V.Int 1) ] ],
      "top: undeclared name missing in assignment rhs" );
    ( "output port read",
      [ unit_of ~signals:[ "s" ] "top" [ "o", V.Dir_out ]
          [ "o" <== V.Lit { signed = true; width = 8; value = 1L }; "s" <== r "o" ] ],
      "top: output port o read in assignment rhs" );
    ( "multiple drivers (assignment)",
      [ unit_of "top" [ "a", V.Dir_in; "o", V.Dir_out ]
          [ "o" <== r "a"; "o" <== r "a" ] ],
      "top: signal o has multiple drivers" );
    ( "multiple drivers (instance output)",
      [ leaf;
        unit_of ~components:leaf_component ~signals:[ "s" ] "top"
          [ "a", V.Dir_in ]
          [ "s" <== r "a"; instance [ "x", "a"; "y", "s" ] ] ],
      "top: signal s has multiple drivers" );
    ( "undeclared component",
      [ leaf;
        unit_of ~signals:[ "s" ] "top" [ "a", V.Dir_in ]
          [ instance [ "x", "a"; "y", "s" ] ] ],
      "top: instance u0 uses undeclared component leaf" );
    ( "no generated entity",
      [ unit_of ~components:[ "ghost", [] ] "top" []
          [ instance ~component:"ghost" [] ] ],
      "top: component ghost has no generated entity" );
    ( "unknown formal",
      [ leaf;
        unit_of ~components:leaf_component ~signals:[ "s" ] "top"
          [ "a", V.Dir_in ]
          [ instance [ "x", "a"; "y", "s"; "z", "a" ] ] ],
      "top: instance u0 maps unknown formal z" );
    ( "unmapped formal",
      [ leaf;
        unit_of ~components:leaf_component "top" [ "a", V.Dir_in ]
          [ instance [ "x", "a" ] ] ],
      "top: instance u0 leaves formal y unmapped" );
    ( "duplicate entity",
      [ leaf; leaf ],
      "duplicate entity leaf" );
    (* two violations: the first in check order is reported *)
    ( "duplicate declaration before body errors",
      [ unit_of ~signals:[ "b"; "a"; "b"; "a" ] "top" [] [ "c" <== r "d" ] ],
      "top: b declared more than once" );
    ( "statement order decides",
      [ unit_of "top" [ "a", V.Dir_in; "o", V.Dir_out ]
          [ "o" <== r "missing"; "o" <== r "a"; "o" <== r "a" ] ],
      "top: undeclared name missing in assignment rhs" );
    ( "target checked before rhs",
      [ unit_of "top" [ "a", V.Dir_in; "o", V.Dir_out ]
          [ "o" <== r "a"; "o" <== r "missing" ] ],
      "top: signal o has multiple drivers" );
    ( "unknown formal before unmapped formal",
      [ leaf;
        unit_of ~components:leaf_component "top" [ "a", V.Dir_in ]
          [ instance [ "z", "a" ] ] ],
      "top: instance u0 maps unknown formal z" );
    ( "duplicate entity before unit errors",
      [ unit_of "bad" [] [ "c" <== r "d" ]; leaf; leaf ],
      "duplicate entity leaf" );
    ( "first unit's violation wins",
      [ unit_of "first" [] [ "c" <== r "d" ];
        unit_of ~signals:[ "s"; "s" ] "second" [] [] ],
      "first: undeclared name c in assignment" );
    ( "multiple drivers (reset assignment)",
      [ unit_of ~signals:[ "s" ] "top"
          [ "clk", V.Dir_in; "rst", V.Dir_in; "a", V.Dir_in ]
          [ "s" <== r "a"; process [] [ V.Id "s", r "a" ] ] ],
      "top: signal s has multiple drivers" );
    ( "a name's text decides: port v0 is register 0's signal",
      [ (let u = unit_of "top" [ "v0", V.Dir_in ] [] in
         { u with
           V.unit_arch =
             { u.V.unit_arch with
               V.signals = [ { V.sig_name = V.Reg (0, 0); sig_type = V.Signed 8 } ] } })
      ],
      "top: v0 declared more than once" ) ]

let test_lint_messages () =
  List.iter
    (fun (name, units, msg) ->
      Alcotest.(check string) name msg (lint_error units))
    lint_cases

(* [V.id] maps a text to the name that renders to it, and back. *)
let test_names_of_texts () =
  List.iter
    (fun (text, name) ->
      Alcotest.(check bool) text true (V.id text = name);
      Alcotest.(check string) text text (V.name_to_string name))
    [ "v0", V.Reg (0, 0);
      "v12_d3", V.Reg (12, 3);
      "v7_i0", V.Internal (7, 0);
      "v3_d0", V.Id "v3_d0";
      "v03", V.Id "v03";
      "v", V.Id "v";
      "v3_", V.Id "v3_";
      "v3_x1", V.Id "v3_x1";
      "fb_sum", V.Id "fb_sum" ]

(* ------------------------------------------------------------------ *)
(* LUT / ROM                                                           *)
(* ------------------------------------------------------------------ *)

let test_rom_generation () =
  let table = Lut_conv.cos_table ~in_bits:4 ~out_bits:8 () in
  let luts_sig =
    [ "cos",
      { Semant.lut_in = Ast.make_ikind ~signed:false 4;
        lut_out = Ast.make_ikind ~signed:true 8 } ]
  in
  let d =
    design_of ~luts_sig ~luts:[ table ]
      "void f(uint4 x, int8* y) { *y = cos(x); }" "f"
  in
  ignore (Lint.check d);
  let text = V.to_string d in
  Alcotest.(check bool) "rom entity" true (contains "entity rom_cos is" text);
  Alcotest.(check bool) "selected assignment" true
    (contains "with to_integer(addr) select" text);
  (* init file alongside *)
  let files = V.to_files d in
  Alcotest.(check bool) "init file present" true
    (List.exists (fun (name, _) -> name = "cos.init") files)

(* ------------------------------------------------------------------ *)
(* Gallery VHDL golden                                                 *)
(* ------------------------------------------------------------------ *)

module Kernels = Roccc_core.Kernels

let gallery_designs () =
  List.map
    (fun (b : Kernels.benchmark) -> b, Kernels.compile b)
    (Kernels.gallery @ [ Kernels.wavelet_cols ])

(* The line tools/gen_golden.ml writes for a kernel: digests of its VHDL
   text and of its ROM init files. *)
let digest_line (b : Kernels.benchmark) (d : V.design) =
  let hex s = Digest.to_hex (Digest.string s) in
  Printf.sprintf "%s vhdl=%s rom=%s\n" b.Kernels.bench_name
    (hex (V.to_string d))
    (hex
       (String.concat ""
          (List.map
             (fun t -> t.Lut_conv.lut_name ^ "\n" ^ Lut_conv.to_init_text t)
             d.V.roms)))

(* Flip-flop bits of a generated design's pipeline registers: the targets
   of the node latches, the top-level input alignment and the output
   registers. The feedback registers are not counted: the area model
   charges them apart, as Pipeline.feedback_bits. *)
let pipeline_register_bits (d : V.design) : int =
  List.fold_left
    (fun acc (u : V.design_unit) ->
      let width = Hashtbl.create 64 in
      List.iter
        (fun p -> Hashtbl.replace width p.V.port_name (V.vtype_width p.V.port_type))
        u.V.unit_entity.V.entity_ports;
      List.iter
        (fun s -> Hashtbl.replace width s.V.sig_name (V.vtype_width s.V.sig_type))
        u.V.unit_arch.V.signals;
      List.fold_left
        (fun acc c ->
          match c with
          | V.Clocked_process
              { label = "latches" | "input_align" | "output_regs";
                assignments;
                _ } ->
            List.fold_left
              (fun acc (t, _) -> acc + Hashtbl.find width t)
              acc assignments
          | _ -> acc)
        acc u.V.unit_arch.V.body)
    0 d.V.units

(* The VHDL has exactly the register bits the area model charges. *)
let test_register_bits_match_latch_bits () =
  List.iter
    (fun ((b : Kernels.benchmark), (c : Roccc_core.Driver.compiled)) ->
      Alcotest.(check int) b.Kernels.bench_name
        c.Roccc_core.Driver.pipeline.Pipeline.latch_bits
        (pipeline_register_bits c.Roccc_core.Driver.design))
    (gallery_designs ())

let test_gallery_golden () =
  let ic = open_in_bin "golden/gallery.vhdl.txt" in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let actual =
    String.concat ""
      (List.map
         (fun (b, c) -> digest_line b c.Roccc_core.Driver.design)
         (gallery_designs ()))
  in
  Alcotest.(check string) "gallery VHDL digests" expected actual

(* The operator corpus (tools/op_cases.ml): its VHDL matches the digests
   tools/gen_golden.ml wrote, and each entry's hardware equals C. *)
let test_ops_golden () =
  let ic = open_in_bin "golden/ops.vhdl.txt" in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "operator corpus VHDL digests" expected
    (Op_cases.golden ())

let test_ops_verify () =
  List.iter
    (fun entry ->
      Alcotest.(check (list string)) entry []
        (Roccc_core.Driver.verify ~arrays:Op_cases.arrays
           (Op_cases.compile entry)))
    Op_cases.entries

(* ------------------------------------------------------------------ *)
(* Component library (paper §4.1)                                      *)
(* ------------------------------------------------------------------ *)

module Lib = Roccc_vhdl.Library

let count_occurrences needle hay =
  let re = Str.regexp_string needle in
  let rec loop pos acc =
    match Str.search_forward re hay pos with
    | exception Not_found -> acc
    | i -> loop (i + String.length needle) (acc + 1)
  in
  loop 0 0

let balanced text =
  (* every architecture/process opened is closed (openings start a line) *)
  count_occurrences "\narchitecture " text
  = count_occurrences "end architecture" text
  && count_occurrences ": process(" text = count_occurrences "end process" text
  && count_occurrences "\nentity " text = count_occurrences "end entity" text

(* The Figure 2 system of a 5-tap FIR over 8-bit samples: it carries the
   library's address generator, smart buffer and controller entities. *)
let fir_system =
  lazy
    (Lib.system_wrapper_vhdl ~dp_entity:"fir_dp" ~element_bits:8
       ~win_ports:[ "A0"; "A1"; "A2"; "A3"; "A4" ]
       ~out_ports:[ "Tmp0", 16 ]
       ~total_words:64 ~iterations:60 ~latency:3)

let test_library_address_generator () =
  let text = Lazy.force fir_system in
  Alcotest.(check bool) "entity present" true
    (contains "entity roccc_addr_gen is" text);
  Alcotest.(check bool) "generic total_words" true
    (contains "total_words" text);
  Alcotest.(check bool) "balanced" true (balanced text)

let test_library_smart_buffer () =
  let text = Lazy.force fir_system in
  Alcotest.(check bool) "entity present" true
    (contains "entity roccc_smart_buffer is" text);
  (* five window taps exported *)
  for i = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "win%d port" i)
      true
      (contains (Printf.sprintf "win%d : out signed(7 downto 0)" i) text)
  done;
  Alcotest.(check bool) "balanced" true (balanced text)

let test_library_controller () =
  let text = Lazy.force fir_system in
  Alcotest.(check bool) "states" true
    (contains "(s_filling, s_steady, s_draining, s_done)" text);
  Alcotest.(check bool) "balanced" true (balanced text)

let test_library_line_buffer () =
  let text =
    Lib.line_buffer_vhdl ~win_rows:3 ~win_cols:3 ~row_length:16
      ~element_bits:8
  in
  Alcotest.(check bool) "entity" true
    (contains "entity roccc_line_buffer is" text);
  (* 9 window taps *)
  for r = 0 to 2 do
    for c = 0 to 2 do
      Alcotest.(check bool)
        (Printf.sprintf "tap %d %d" r c)
        true
        (contains (Printf.sprintf "win_%d_%d : out signed(7 downto 0)" r c)
           text)
    done
  done;
  (* depth = 2 lines + 3 = 35 registers -> indices 0..34 *)
  Alcotest.(check bool) "register file depth" true
    (contains "array (0 to 34)" text);
  (* the newest tap is regs(0), the oldest is regs(34) *)
  Alcotest.(check bool) "newest tap" true (contains "win_2_2 <= regs(0);" text);
  Alcotest.(check bool) "oldest tap" true
    (contains "win_0_0 <= regs(34);" text);
  Alcotest.(check bool) "balanced" true (balanced text)

let test_library_system_wrapper () =
  let text = Lazy.force fir_system in
  Alcotest.(check bool) "system entity" true
    (contains "entity fir_dp_system is" text);
  List.iter
    (fun inst ->
      Alcotest.(check bool) (inst ^ " instantiated") true (contains inst text))
    [ "u_addr"; "u_buffer"; "u_control"; "u_datapath" ];
  Alcotest.(check bool) "balanced" true (balanced text)

(* ------------------------------------------------------------------ *)

let suites =
  [ "vhdl.render",
    [ Alcotest.test_case "entity and ports" `Quick test_render_entity;
      Alcotest.test_case "one component per node" `Quick
        test_one_component_per_node;
      Alcotest.test_case "feedback register" `Quick
        test_feedback_register_emitted ];
    "vhdl.lint",
    [ Alcotest.test_case "FIR design" `Quick test_lint_fir;
      Alcotest.test_case "if_else design" `Quick test_lint_if_else;
      Alcotest.test_case "accumulator design" `Quick test_lint_accumulator;
      Alcotest.test_case "nested branches design" `Quick test_lint_nested;
      Alcotest.test_case "rejects undeclared names" `Quick
        test_lint_catches_undeclared;
      Alcotest.test_case "rejects multiple drivers" `Quick
        test_lint_catches_multiple_drivers;
      Alcotest.test_case "one exact message per rule" `Quick test_lint_messages;
      Alcotest.test_case "names of texts" `Quick test_names_of_texts ];
    "vhdl.rom",
    [ Alcotest.test_case "ROM component + init file" `Quick
        test_rom_generation ];
    "vhdl.golden",
    [ Alcotest.test_case "gallery VHDL matches golden digests" `Quick
        test_gallery_golden;
      Alcotest.test_case "register bits = latch bits over the gallery" `Quick
        test_register_bits_match_latch_bits;
      Alcotest.test_case "operator corpus matches golden digests" `Quick
        test_ops_golden;
      Alcotest.test_case "operator corpus: hw = sw" `Quick test_ops_verify ];
    "vhdl.library",
    [ Alcotest.test_case "address generator FSM" `Quick
        test_library_address_generator;
      Alcotest.test_case "smart buffer shift register" `Quick
        test_library_smart_buffer;
      Alcotest.test_case "controller FSM" `Quick test_library_controller;
      Alcotest.test_case "2-D line buffer" `Quick test_library_line_buffer;
      Alcotest.test_case "Figure 2 system wrapper" `Quick
        test_library_system_wrapper ] ]
