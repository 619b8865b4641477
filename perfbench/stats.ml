(* Order statistics and averages used by every metric the benchmark
   reports. Percentiles are nearest-rank: the value at 1-based rank
   ceil(p/100 * n) of the sorted samples, so a reported percentile is
   always one of the measured samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile (p : float) (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

let median xs = percentile 50.0 xs

let mean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean (xs : float list) : float =
  if List.exists (fun x -> x <= 0.0) xs then
    invalid_arg "Stats.geomean: non-positive sample";
  Float.exp (mean (List.map Float.log xs))
