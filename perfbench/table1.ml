(* The Table 1 row: what the paper compares against the Xilinx IP for
   each of its nine kernels, computed from compiled designs. Operator rows
   compare against bare IP operators, so they count operator slices only;
   the windowed kernels include their buffers and controllers; the wavelet
   engine is the row pass plus the column pass. This follows the row
   definition of [bench --only table1], and the bench test checks that
   both print the same geomeans. *)

module Baselines = Roccc_ip.Baselines
module Kernels = Roccc_core.Kernels
module Driver = Roccc_core.Driver
module Area = Roccc_fpga.Area

(* Every compile table1-cold performs: the gallery plus the wavelet
   engine's column pass. *)
let kernels : Kernels.benchmark list = Kernels.gallery @ [ Kernels.wavelet_cols ]

let operator_rows =
  [ "bit_correlator"; "mul_acc"; "udiv"; "square_root"; "cos"; "arbitrary_lut" ]

(* [compiled name] is the design of gallery kernel [name]. *)
let row (compiled : string -> Driver.compiled) (name : string) : Baselines.perf =
  match name with
  | "wavelet" ->
    let r = (compiled "wavelet").Driver.area and c = (compiled "wavelet_cols").Driver.area in
    { Baselines.slices = r.Area.slices + c.Area.slices;
      clock_mhz = Float.min r.Area.clock_mhz c.Area.clock_mhz }
  | _ ->
    let a = (compiled name).Driver.area in
    { Baselines.slices =
        (if List.mem name operator_rows then a.Area.operator_slices else a.Area.slices);
      clock_mhz = a.Area.clock_mhz }

(* Geomean area and clock ratios, ours over the IP model, across the rows
   where the compiler does real work (the LUT rows are identical on both
   sides by construction, as in the paper). *)
let ratios (compiled : string -> Driver.compiled) : float * float =
  let active =
    List.filter
      (fun (r : Baselines.row) ->
        r.Baselines.name <> "cos" && r.Baselines.name <> "arbitrary_lut")
      Baselines.paper_table1
  in
  let pairs =
    List.map
      (fun (r : Baselines.row) ->
        let ours = row compiled r.Baselines.name in
        let ip = Option.get (Baselines.model r.Baselines.name) in
        ( float_of_int ours.Baselines.slices
          /. float_of_int (max 1 ip.Baselines.slices),
          ours.Baselines.clock_mhz /. ip.Baselines.clock_mhz ))
      active
  in
  Stats.geomean (List.map fst pairs), Stats.geomean (List.map snd pairs)
