(** VHDL code generation (paper §4.2.4): one component per data-path node;
    single-assigned virtual registers become wires; instructions become
    combinational or sequential statements depending on the pipeliner's
    latch placement; LUT instructions instantiate ROM components initialized
    from text files; SNX/LPR pairs become top-level feedback registers. *)

val generate :
  ?luts:Roccc_hir.Lut_conv.table list ->
  Roccc_datapath.Pipeline.t ->
  Ast.design
(** Generate the complete design: ROM units, one unit per data-path node,
    and the structural top entity (clk/rst, input/output ports, feedback
    register process, input alignment registers, output registers). *)
