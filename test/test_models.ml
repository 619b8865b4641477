(* Property tests over the cost models and buffers: monotonicity of the area
   model in port widths, pipeline depth monotone in the stage budget, 2-D
   smart buffer equivalence with direct indexing. *)

module Driver = Roccc_core.Driver
module Area = Roccc_fpga.Area
module Pipeline = Roccc_datapath.Pipeline
module Smart_buffer = Roccc_buffers.Smart_buffer

let qcheck_case = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Area model                                                          *)
(* ------------------------------------------------------------------ *)

let area_monotone (w, extra) =
  let kernel bits =
    Printf.sprintf
      "void k(int%d A[16], int32 C[12]) {\n\
      \  int i;\n\
      \  for (i = 0; i < 12; i++) {\n\
      \    C[i] = 3*A[i] + 5*A[i+1] - A[i+4] * A[i+2];\n\
      \  }\n\
       }"
      bits
  in
  let narrow = Driver.compile ~entry:"k" (kernel w) in
  let wide = Driver.compile ~entry:"k" (kernel (w + extra)) in
  wide.Driver.area.Area.slices >= narrow.Driver.area.Area.slices

(* 16 -> 17 bits takes the product past 32 bits, the pair a multiplier
   model that picks its cost by a width threshold gets wrong; checked on
   every run, not only when the random draw lands on it *)
let area_monotone_at_switch = lazy (area_monotone (16, 1))

let prop_area_monotone_in_width =
  (* widening the input ports never shrinks the estimated area *)
  QCheck.Test.make ~count:20 ~name:"area monotone in port width"
    QCheck.(pair (int_range 4 16) (int_range 1 15))
    (fun p -> Lazy.force area_monotone_at_switch && area_monotone p)

let prop_slices_of_monotone =
  QCheck.Test.make ~count:200 ~name:"slices_of monotone"
    QCheck.(pair (pair (int_range 0 5000) (int_range 0 5000)) (int_range 0 500))
    (fun ((luts, ffs), extra) ->
      Area.slices_of ~luts:(luts + extra) ~flip_flops:ffs
      >= Area.slices_of ~luts ~flip_flops:ffs
      && Area.slices_of ~luts ~flip_flops:(ffs + extra)
         >= Area.slices_of ~luts ~flip_flops:ffs)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_depth_monotone_in_budget =
  (* a smaller stage budget never yields a shallower pipeline *)
  QCheck.Test.make ~count:15 ~name:"pipeline depth monotone in stage budget"
    QCheck.(pair (QCheck.make (Gen.float_range 1.5 20.0)) (int_range 1 10))
    (fun (t1, delta) ->
      let t2 = t1 +. float_of_int delta in
      let compile target_ns =
        Driver.compile
          ~options:{ Driver.default_options with Driver.target_ns }
          ~entry:"fir"
          "void fir(int8 A[16], int16 C[12]) { int i; for (i=0;i<12;i++) \
           C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; }"
      in
      let deep = compile t1 and shallow = compile t2 in
      Pipeline.latency deep.Driver.pipeline
      >= Pipeline.latency shallow.Driver.pipeline)

let prop_latency_never_below_levels =
  (* the pipeline cannot collapse below one stage *)
  QCheck.Test.make ~count:10 ~name:"at least one pipeline stage"
    (QCheck.make (QCheck.Gen.float_range 1.0 100.0))
    (fun target_ns ->
      let c =
        Driver.compile
          ~options:{ Driver.default_options with Driver.target_ns }
          ~entry:"k" "void k(int a, int b, int* o) { *o = a * b + 1; }"
      in
      Pipeline.latency c.Driver.pipeline >= 1)

(* ------------------------------------------------------------------ *)
(* 2-D smart buffer                                                    *)
(* ------------------------------------------------------------------ *)

let prop_buffer_2d_matches_direct =
  QCheck.Test.make ~count:40
    ~name:"2-D smart buffer windows equal direct indexing"
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (wr, wc) ->
      let rows = 6 and cols = 7 in
      let ir = rows - wr and ic = cols - wc in
      QCheck.assume (ir >= 1 && ic >= 1);
      let offsets =
        List.concat_map
          (fun r -> List.init wc (fun c -> [ r; c ]))
          (List.init wr (fun r -> r))
      in
      let cfg =
        { Smart_buffer.element_bits = 16;
          element_signed = true;
          bus_elements = 1;
          array_dims = [ rows; cols ];
          window_offsets = offsets;
          stride = [ 1; 1 ];
          iterations = [ ir; ic ];
          lower = [ 0; 0 ] }
      in
      let b = Smart_buffer.create cfg in
      let data =
        Array.init (rows * cols) (fun i -> Int64.of_int ((i * 13 mod 301) - 150))
      in
      let windows = ref [] in
      Array.iter
        (fun v ->
          Test_hw.push b [| v |];
          let rec drain () =
            match Test_hw.pop_window b with
            | Some w ->
              windows := !windows @ [ w ];
              drain ()
            | None -> ()
          in
          drain ())
        data;
      List.length !windows = ir * ic
      && List.for_all
           (fun (idx, w) ->
             let r0 = idx / ic and c0 = idx mod ic in
             Array.to_list w
             = List.map
                 (fun off ->
                   match off with
                   | [ dr; dc ] -> data.(((r0 + dr) * cols) + c0 + dc)
                   | _ -> assert false)
                 offsets)
           (List.mapi (fun i w -> i, w) !windows))

let prop_buffer_capacity_sufficient =
  (* the declared register capacity covers the live span of any window *)
  QCheck.Test.make ~count:100 ~name:"buffer capacity covers the window span"
    QCheck.(pair (int_range 1 6) (int_range 1 4))
    (fun (extent, bus) ->
      let n = 32 in
      let cfg =
        { Smart_buffer.element_bits = 8;
          element_signed = false;
          bus_elements = bus;
          array_dims = [ n ];
          window_offsets = List.init extent (fun i -> [ i ]);
          stride = [ 1 ];
          iterations = [ n - extent + 1 ];
          lower = [ 0 ] }
      in
      let elements = Smart_buffer.capacity_bits cfg / 8 in
      elements >= extent && elements <= extent + bus)

(* ------------------------------------------------------------------ *)
(* Engine invariants                                                   *)
(* ------------------------------------------------------------------ *)

let prop_engine_cycles_lower_bound =
  (* total cycles >= launches (II = 1) and >= latency *)
  QCheck.Test.make ~count:15 ~name:"cycle count lower bounds"
    QCheck.(int_range 4 24)
    (fun n ->
      let src =
        Printf.sprintf
          "void k(int A[%d], int C[%d]) { int i; for (i=0;i<%d;i++) C[i] = \
           A[i] * 2 + 1; }"
          (n + 1) n n
      in
      let c = Driver.compile ~entry:"k" src in
      let arrays = [ "A", Array.init (n + 1) Int64.of_int ] in
      let r = Driver.simulate ~arrays c in
      r.Roccc_hw.Engine.cycles >= r.Roccc_hw.Engine.launches
      && r.Roccc_hw.Engine.cycles >= r.Roccc_hw.Engine.pipeline_latency
      && r.Roccc_hw.Engine.launches = n)

let test_power_estimates () =
  let c = Roccc_core.Kernels.compile Roccc_core.Kernels.fir in
  let pw = Area.power c.Driver.area in
  Alcotest.(check bool) "positive" true
    (pw.Area.dynamic_mw > 0.0 && pw.Area.static_mw > 0.0);
  Alcotest.(check bool) "total = dyn + static" true
    (abs_float (pw.Area.total_mw -. pw.Area.dynamic_mw -. pw.Area.static_mw)
    < 1e-9);
  (* higher toggle rate -> more dynamic power *)
  let hot = Area.power ~toggle_rate:0.9 c.Driver.area in
  Alcotest.(check bool) "toggle monotone" true
    (hot.Area.dynamic_mw > pw.Area.dynamic_mw);
  (* a bigger circuit burns more power at the same clock *)
  let big = Roccc_core.Kernels.compile Roccc_core.Kernels.square_root in
  let pw_big = Area.power big.Driver.area in
  Alcotest.(check bool) "bigger kernel, more static power" true
    (pw_big.Area.static_mw > pw.Area.static_mw)

let suites =
  [ "models.properties",
    [ qcheck_case prop_area_monotone_in_width;
      qcheck_case prop_slices_of_monotone;
      qcheck_case prop_pipeline_depth_monotone_in_budget;
      qcheck_case prop_latency_never_below_levels;
      qcheck_case prop_buffer_2d_matches_direct;
      qcheck_case prop_buffer_capacity_sufficient;
      qcheck_case prop_engine_cycles_lower_bound;
      Alcotest.test_case "power model" `Quick test_power_estimates ] ]
