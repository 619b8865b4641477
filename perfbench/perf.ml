(* The benchmark executable: runs one workload per process and prints its
   result as one JSON line, the last line of standard output.

     perf.exe --workload NAME --seconds S [--seed N] [--trace 0|1]
              [--roccc PATH]

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ones, and the spans are also written to
   .perfbench/trace-NAME-seedN.json as Chrome trace_event JSON. A readable report
   goes to standard error. perfbench/run.py builds this program and runs
   it; see perfbench/README.md. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let roccc = ref "_build/default/bin/roccc.exe" and out_dir = ".perfbench" in
  let names = String.concat ", " (List.map fst Workloads.workloads) in
  let spec =
    [ "--workload", Arg.Set_string workload, "NAME one of " ^ names;
      "--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)";
      "--seconds", Arg.Set_float seconds, "S length of the measured window";
      "--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run";
      "--roccc", Arg.Set_string roccc, "PATH roccc CLI binary for serve-mixed" ]
  in
  let usage = "perf.exe --workload NAME --seconds S" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload Workloads.workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "perf.exe: --workload must be one of %s\n" names;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perf.exe: --trace takes 0 or 1";
    exit 2
  end;
  if !seconds <= 0.0 then begin
    prerr_endline "perf.exe: --seconds S (S > 0) is required";
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let cfg =
    { Workloads.seed = !seed; seconds = !seconds; roccc = !roccc; out_dir }
  in
  let traced = !trace = 1 in
  let rc = if traced then Some (Spans.create ()) else None in
  let o = run cfg rc in
  Printf.eprintf "%s seed %d: %d ops, %d failed, end-of-run checks %s\n" !workload !seed
    o.Workloads.attempted o.Workloads.failed
    (if o.Workloads.verified then "passed" else "FAILED");
  List.iter prerr_endline o.Workloads.notes;
  Printf.eprintf "host slowdown %.3f; end-to-end values before scaling to the reference host:\n"
    (Stats.median (List.map snd o.Workloads.window.Workloads.probes) /. Host.reference_ms);
  List.iter
    (fun (k, v) -> Printf.eprintf "  %-20s %.6g\n" k v)
    (Workloads.end_to_end_values ~scaled:false o);
  Option.iter
    (fun rc ->
      let file = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (Roccc_service.Trace.to_chrome_json
               ~meta:[ "workload", Roccc_service.Trace.Str !workload; "seed", Roccc_service.Trace.Int !seed ]
               rc.Spans.trace));
      Printf.eprintf "wrote %s\n" file)
    rc;
  print_endline (Workloads.result_json ~trace:traced o)
