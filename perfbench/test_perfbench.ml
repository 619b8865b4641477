(* Tests of the benchmark itself: its statistics, its seeded generators,
   its correctness checks, and that what it prints matches the metric and
   workload names in BENCHMARK.json. *)

open Perfbench
module Driver = Roccc_core.Driver
module Json = Roccc_service.Json

let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

(* ---- statistics ---- *)

let test_percentile () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  check_float "p50 of 1..10" 5.0 (Stats.percentile 50.0 xs);
  check_float "p90 of 1..10" 9.0 (Stats.percentile 90.0 xs);
  check_float "p99 of 1..10" 10.0 (Stats.percentile 99.0 xs);
  check_float "p0 clamps to the minimum" 1.0 (Stats.percentile 0.0 xs);
  check_float "unsorted input" 3.0 (Stats.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  check_float "one sample" 7.0 (Stats.percentile 90.0 [ 7.0 ])

let test_geomean () =
  check_float "geomean 1,4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  check_float "geomean 2,8,4" 4.0 (Stats.geomean [ 2.0; 8.0; 4.0 ]);
  Alcotest.check_raises "a zero sample is rejected"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* ---- generators ---- *)

let sources pool = Array.to_list (Array.map (fun (k : Gen.kernel) -> k.Gen.k_source, k.Gen.k_arrays) pool)

let test_zoo_determinism () =
  let a = Gen.zoo_pool ~seed:1 and b = Gen.zoo_pool ~seed:1 and c = Gen.zoo_pool ~seed:2 in
  Alcotest.(check bool) "same seed, same kernels" true (sources a = sources b);
  Alcotest.(check bool) "other seed, other kernels" false (sources a = sources c);
  let shapes pool =
    List.sort compare (Array.to_list (Array.map (fun (k : Gen.kernel) -> k.Gen.k_entry) pool))
  in
  Alcotest.(check (list string)) "other seed, same strata" (shapes a) (shapes c)

let stream seed = List.init 3000 (Gen.request ~seed)

let test_serve_determinism () =
  Alcotest.(check bool) "same seed, same stream" true (stream 1 = stream 1);
  Alcotest.(check bool) "other seed, other stream" false (stream 1 = stream 2);
  let fresh seed = (Gen.fresh_kernel ~seed 3).Gen.k_source in
  Alcotest.(check bool) "same seed, same fresh kernel" true (fresh 1 = fresh 1);
  Alcotest.(check bool) "other seed, other fresh kernel" false (fresh 1 = fresh 2)

let test_serve_shares () =
  let reqs = List.init 10_000 (Gen.request ~seed:5) in
  let count p = List.length (List.filter p reqs) in
  Alcotest.(check int) "79% hot" 7900 (count (function Gen.Hot _ -> true | _ -> false));
  Alcotest.(check int) "20% fresh" 2000 (count (function Gen.Fresh _ -> true | _ -> false));
  Alcotest.(check int) "1% health" 100 (count (function Gen.Health -> true | _ -> false));
  let fresh = List.filter_map (function Gen.Fresh f -> Some f | _ -> None) reqs in
  Alcotest.(check (list int)) "each fresh kernel requested once" (List.init 2000 Fun.id)
    (List.sort compare fresh);
  let entries =
    List.sort_uniq compare (List.map (fun f -> (Gen.fresh_kernel ~seed:5 f).Gen.k_entry) fresh)
  in
  Alcotest.(check int) "fresh entries are distinct" 2000 (List.length entries)

(* Every kernel one seed generates compiles, and the circuit equals the C
   interpreter on the kernel's sample inputs. *)
let test_generated_kernels_verify () =
  let seed = 3 in
  let kernels =
    Array.to_list (Gen.zoo_pool ~seed)
    @ List.init Gen.hot_keys Gen.hot_kernel
    @ List.init 90 (Gen.fresh_kernel ~seed)
  in
  List.iter
    (fun (k : Gen.kernel) ->
      match Driver.compile ~options:k.Gen.k_options ~entry:k.Gen.k_entry k.Gen.k_source with
      | c ->
        Alcotest.(check (list string)) (k.Gen.k_entry ^ ": hw = sw") []
          (Driver.verify ~arrays:k.Gen.k_arrays c)
      | exception Driver.Error msg -> Alcotest.failf "%s does not compile: %s" k.Gen.k_entry msg)
    kernels

(* ---- correctness checks ---- *)

let test_corrupted_output_fails () =
  let k = (Gen.zoo_pool ~seed:1).(0) in
  let compile () =
    Workloads.summarize
      (Driver.compile ~options:k.Gen.k_options ~entry:k.Gen.k_entry k.Gen.k_source)
  in
  let expected = compile () in
  let good = compile () in
  let corrupted =
    { good with
      Workloads.s_design = { good.Workloads.s_design with Workloads.slices = good.Workloads.s_design.Workloads.slices + 1 } }
  in
  let record index result = { Workloads.index; start = 0.0; dur = 0.0; traced = false; result } in
  let records = [ record 0 (Ok good); record 1 (Ok corrupted); record 2 (Error "raised") ] in
  Alcotest.(check int) "the corrupted and the raising op fail" 2
    (Workloads.count_failed records (fun _ s -> s = expected))

(* ---- names: BENCHMARK.json against what perf.exe prints ---- *)

let benchmark_json () =
  match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "BENCHMARK.json: %s" msg

let entries key =
  match Json.member key (benchmark_json ()) with
  | Some (Json.Arr items) -> items
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let str k j = Option.get (Option.bind (Json.member k j) Json.to_string_opt)

let named_units key = List.map (fun j -> str "name" j, str "unit" j) (entries key)

let test_names_match () =
  Alcotest.(check (list string)) "workloads" (List.map (str "name") (entries "workloads"))
    (List.map fst Workloads.workloads);
  Alcotest.(check (list (pair string string))) "end-to-end metrics" (named_units "end_to_end")
    Workloads.end_to_end;
  Alcotest.(check (list (pair string string))) "per-layer metrics" (named_units "per_layer")
    Workloads.per_layer

(* A short real run of zoo-cold in both modes prints exactly the listed
   metrics, all ops pass, and the traced run's layer self times cover its
   ops. *)
let test_short_run () =
  let cfg = { Workloads.seed = 4; seconds = 0.3; roccc = ""; out_dir = "." } in
  let run trace =
    let o = Workloads.zoo_cold cfg (if trace then Some (Spans.create ()) else None) in
    match Json.parse (Workloads.result_json ~trace o) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "result line: %s" msg
  in
  List.iter
    (fun (trace, listed) ->
      let j = run trace in
      Alcotest.(check (option bool)) "correct" (Some true)
        (Option.bind (Json.member "correct" j) Json.to_bool_opt);
      Alcotest.(check (option int)) "failed" (Some 0)
        (Option.bind (Json.member "failed" j) Json.to_int_opt);
      let metrics =
        match Json.member "metrics" j with Some (Json.Obj kv) -> kv | _ -> []
      in
      Alcotest.(check (list string)) "printed metrics" (List.map fst listed) (List.map fst metrics);
      if trace then begin
        let value k =
          Option.get (Option.bind (Json.member "value" (List.assoc k metrics)) Json.to_float_opt)
        in
        let layers =
          List.fold_left (fun a l -> a +. value (Printf.sprintf "layer.%s.share" l)) 0.0 Workloads.layers
        in
        Alcotest.(check bool) "unattributed under 5%" true (value "trace.unattributed.share" < 5.0);
        Alcotest.(check bool) "layers plus unattributed cover the ops" true
          (Float.abs (layers +. value "trace.unattributed.share" -. 100.0) < 0.5)
      end)
    [ false, Workloads.end_to_end; true, Workloads.per_layer ]

(* ---- Table 1: the same geomeans as [bench --only table1] ---- *)

let test_table1_matches_bench () =
  let compiled = List.map (fun (b : Roccc_core.Kernels.benchmark) -> b.Roccc_core.Kernels.bench_name, Roccc_core.Kernels.compile b) Table1.kernels in
  let area, clock = Table1.ratios (fun name -> List.assoc name compiled) in
  let ic = Unix.open_process_in "../bench/main.exe --only table1" in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  let line =
    List.find (fun l -> String.starts_with ~prefix:"geomean (non-LUT rows)" l) (String.split_on_char '\n' out)
  in
  let bench_area, bench_clock =
    Scanf.sscanf line "geomean (non-LUT rows): paper area ratio %_fx, ours %fx; paper clock ratio %_fx, ours %fx"
      (fun a c -> a, c)
  in
  Alcotest.(check string) "area ratio" (Printf.sprintf "%.2f" bench_area) (Printf.sprintf "%.2f" area);
  Alcotest.(check string) "clock ratio" (Printf.sprintf "%.2f" bench_clock) (Printf.sprintf "%.2f" clock)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "geomean" `Quick test_geomean ] );
      ( "generators",
        [ Alcotest.test_case "zoo determinism" `Quick test_zoo_determinism;
          Alcotest.test_case "serve determinism" `Quick test_serve_determinism;
          Alcotest.test_case "serve shares" `Quick test_serve_shares;
          Alcotest.test_case "generated kernels verify" `Quick test_generated_kernels_verify ] );
      ( "checks",
        [ Alcotest.test_case "corrupted output fails" `Quick test_corrupted_output_fails;
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match;
          Alcotest.test_case "short run" `Quick test_short_run;
          Alcotest.test_case "table1 matches bench" `Quick test_table1_matches_bench ] ) ]
