(* Pareto dominance over (clock up, slices down, latch bits down). *)

module Driver = Roccc_core.Driver

type metrics = {
  p_slices : int;
  p_clock_mhz : float;
  p_latch_bits : int;
}

let of_measurement (m : Driver.measurement) : metrics =
  { p_slices = m.Driver.ms_slices;
    p_clock_mhz = m.Driver.ms_clock_mhz;
    p_latch_bits = m.Driver.ms_latch_bits }

let dominates (a : metrics) (b : metrics) : bool =
  a.p_slices <= b.p_slices
  && a.p_clock_mhz >= b.p_clock_mhz
  && a.p_latch_bits <= b.p_latch_bits
  && (a.p_slices < b.p_slices
     || a.p_clock_mhz > b.p_clock_mhz
     || a.p_latch_bits < b.p_latch_bits)

let front (points : ('a * metrics) list) : ('a * metrics) list =
  List.filter
    (fun (_, m) ->
      not (List.exists (fun (_, m') -> dominates m' m) points))
    points
