module Area = Roccc_fpga.Area

type t =
  | Max_mhz of { slice_budget : int }
  | Min_slices of { target_mhz : float }
  | Min_latch_bits

let parse ~(name : string) ~(slice_budget : int option)
    ~(target_mhz : float option) : (t, string) result =
  let reject_budget what =
    match slice_budget with
    | Some _ ->
        Error (Printf.sprintf "--slice-budget only applies to max-mhz, not %s" what)
    | None -> Ok ()
  in
  let reject_target what =
    match target_mhz with
    | Some _ ->
        Error (Printf.sprintf "--target-mhz only applies to min-slices, not %s" what)
    | None -> Ok ()
  in
  match name with
  | "max-mhz" -> (
      match reject_target "max-mhz" with
      | Error _ as e -> e
      | Ok () -> (
          match slice_budget with
          | Some b when b <= 0 ->
              Error (Printf.sprintf "--slice-budget expects a positive slice count, got %d" b)
          | Some b -> Ok (Max_mhz { slice_budget = b })
          | None -> Ok (Max_mhz { slice_budget = Area.xc2v2000_slices })))
  | "min-slices" -> (
      match reject_budget "min-slices" with
      | Error _ as e -> e
      | Ok () -> (
          match target_mhz with
          | Some m when (not (Float.is_finite m)) || m < 0.0 ->
              Error (Printf.sprintf "--target-mhz expects a non-negative clock, got %g" m)
          | Some m -> Ok (Min_slices { target_mhz = m })
          | None -> Ok (Min_slices { target_mhz = 0.0 })))
  | "min-latch-bits" -> (
      match reject_budget "min-latch-bits" with
      | Error _ as e -> e
      | Ok () -> (
          match reject_target "min-latch-bits" with
          | Error _ as e -> e
          | Ok () -> Ok Min_latch_bits))
  | other ->
      Error
        (Printf.sprintf
           "unknown objective %S (expected max-mhz, min-slices or min-latch-bits)"
           other)

let name = function
  | Max_mhz _ -> "max-mhz"
  | Min_slices _ -> "min-slices"
  | Min_latch_bits -> "min-latch-bits"

let describe = function
  | Max_mhz { slice_budget } ->
      Printf.sprintf "max-mhz (slices <= %d)" slice_budget
  | Min_slices { target_mhz } when target_mhz > 0.0 ->
      Printf.sprintf "min-slices (clock >= %g MHz)" target_mhz
  | Min_slices _ -> "min-slices (no clock constraint)"
  | Min_latch_bits -> "min-latch-bits"

let feasible (obj : t) (m : Area.estimate) : bool =
  match obj with
  | Max_mhz { slice_budget } -> m.Area.slices <= slice_budget
  | Min_slices { target_mhz } -> m.Area.clock_mhz >= target_mhz
  | Min_latch_bits -> true

let fitness (obj : t) (m : Area.estimate) : float =
  match obj with
  | Max_mhz _ -> m.Area.clock_mhz
  | Min_slices _ -> -.float_of_int m.Area.slices
  | Min_latch_bits -> -.float_of_int m.Area.latch_bits
