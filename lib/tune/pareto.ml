(* Pareto dominance over (clock up, slices down, latch bits down). *)

module Area = Roccc_fpga.Area

let dominates (a : Area.estimate) (b : Area.estimate) : bool =
  a.Area.slices <= b.Area.slices
  && a.Area.clock_mhz >= b.Area.clock_mhz
  && a.Area.latch_bits <= b.Area.latch_bits
  && (a.Area.slices < b.Area.slices
     || a.Area.clock_mhz > b.Area.clock_mhz
     || a.Area.latch_bits < b.Area.latch_bits)

let front (points : ('a * Area.estimate) list) : ('a * Area.estimate) list =
  List.filter
    (fun (_, m) ->
      not (List.exists (fun (_, m') -> dominates m' m) points))
    points
