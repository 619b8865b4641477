(* Pareto dominance over (clock up, slices down, latch bits down). *)

module Driver = Roccc_core.Driver

let dominates (a : Driver.measurement) (b : Driver.measurement) : bool =
  a.Driver.ms_slices <= b.Driver.ms_slices
  && a.Driver.ms_clock_mhz >= b.Driver.ms_clock_mhz
  && a.Driver.ms_latch_bits <= b.Driver.ms_latch_bits
  && (a.Driver.ms_slices < b.Driver.ms_slices
     || a.Driver.ms_clock_mhz > b.Driver.ms_clock_mhz
     || a.Driver.ms_latch_bits < b.Driver.ms_latch_bits)

let front (points : ('a * Driver.measurement) list) :
    ('a * Driver.measurement) list =
  List.filter
    (fun (_, m) ->
      not (List.exists (fun (_, m') -> dominates m' m) points))
    points
