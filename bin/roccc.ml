(** The roccc command-line compiler.

    roccc compile <file.c> -e <entry> [-o DIR] [--dump ...]
    roccc compile-all <file.c> [-o DIR]   (every kernel function in a file)
    roccc simulate <file.c> -e <entry> --array A=1,2,3 --scalar x=5
    roccc profile <file.c> -e <entry>     (rank loops by dynamic op count)
    roccc bench <name>         (compile + simulate a built-in Table 1 kernel)
    roccc batch <files|dirs> [--jobs N] [--cache] [--trace out.json]
    roccc batch <file.c> -e <entry> --sweep   (unroll x bus option grid)
    roccc tune <file.c|kernel> --objective max-mhz --slice-budget 4000
    roccc serve [--socket PATH] [--jobs N] [--cache]   (JSON-lines server)
*)

open Cmdliner
module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Service = Roccc_service.Service
module Svc_cache = Roccc_service.Cache
module Svc_trace = Roccc_service.Trace
module Server = Roccc_service.Server
module Net = Roccc_net.Net
module Faults = Roccc_service.Faults

(* Flag misuse is a usage error: explain and exit 2, the Cmdliner
   convention, instead of surfacing a crash or silently "working". *)
let usage_error msg =
  Printf.eprintf "roccc: %s\n" msg;
  exit 2

let checked r = match r with Ok v -> v | Error msg -> usage_error msg

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Write [files] (name, contents) into [dir], creating [dir] (not its
   parents) when missing; [announce] prints "wrote PATH" per file. *)
let write_files ?(announce = false) dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      if announce then Printf.printf "wrote %s\n" path)
    files

let with_errors f =
  try f () with
  | Sys_error msg ->
    Printf.eprintf "roccc: %s\n" msg;
    exit 1
  | e -> (
    match Roccc_core.Pass.error_message e with
    | Some msg ->
      Printf.eprintf "roccc: %s\n" msg;
      exit 1
    | None -> raise e)

(* ---- common args ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let entry_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "entry" ] ~docv:"FUNC" ~doc:"Kernel function to compile.")

(* The option flags read as [Some v] only when given, so that a command
   can tell which were (see [options_and_flags_term]). *)
let target_ns_arg =
  Arg.(
    value & opt (some float) None
    & info [ "target-ns" ]
        ~absent:(Printf.sprintf "%g" Roccc_datapath.Pipeline.default_target_ns)
        ~doc:"Pipeline stage delay budget (ns).")

let bus_arg =
  Arg.(
    value & opt (some int) None
    & info [ "bus" ] ~absent:"1"
        ~doc:"Memory bus width in elements per access.")

let unroll_inner_arg =
  Arg.(
    value & opt (some int) None
    & info [ "unroll-inner" ] ~absent:"0"
        ~doc:"Fully unroll inner loops up to this trip count.")

let stage_budget_arg =
  Arg.(
    value & opt (some int) None
    & info [ "stage-budget" ]
        ~absent:(string_of_int Roccc_datapath.Delay.default_stage_budget)
        ~doc:
          "Cap the stage count of a multi-stage (wide, >32-bit) operator \
           region; 0 means the decomposition's natural depth. \
           Single-cycle kernels are unaffected.")

let decomp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "decomp" ] ~docv:"NAME"
        ~absent:
          (Roccc_datapath.Delay.decomp_name Roccc_datapath.Delay.default_decomp)
        ~doc:
          "Wide-multiplier decomposition: $(b,csa) (partial products + \
           carry-save 3:2 compression tree) or $(b,addtree) (binary \
           adder tree).")

let decomp_of_flag (name : string) : Roccc_datapath.Delay.decomp =
  match Roccc_datapath.Delay.decomp_of_string name with
  | Some d -> d
  | None ->
    usage_error
      (Printf.sprintf "--decomp: unknown decomposition %s (expected %s)" name
         (String.concat " or "
            (List.map Roccc_datapath.Delay.decomp_name
               Roccc_datapath.Delay.all_decomps)))

let disable_pass_arg =
  Arg.(
    value & opt_all string []
    & info [ "disable-pass" ] ~docv:"PASS"
        ~doc:
          "Skip an optional pass (repeatable); e.g. \
           $(b,bit-width-inference) keeps the declared C widths. See the \
           pass names in $(b,--dump passes).")

(* The compile options, and which of the option flags above were given. *)
let options_and_flags target_ns bus unroll_inner stage_budget decomp
    disabled_passes =
  let given =
    List.filter_map
      (fun (flag, present) -> if present then Some flag else None)
      [ "--target-ns", Option.is_some target_ns;
        "--bus", Option.is_some bus;
        "--unroll-inner", Option.is_some unroll_inner;
        "--stage-budget", Option.is_some stage_budget;
        "--decomp", Option.is_some decomp ]
  in
  let target_ns =
    checked
      (Server.check_positive_float ~flag:"--target-ns"
         (Option.value target_ns
            ~default:Roccc_datapath.Pipeline.default_target_ns))
  in
  let bus =
    checked
      (Server.check_positive_int ~flag:"--bus" (Option.value bus ~default:1))
  in
  let unroll_inner = Option.value unroll_inner ~default:0 in
  if unroll_inner < 0 then
    usage_error
      (Printf.sprintf "--unroll-inner expects a non-negative integer, got %d"
         unroll_inner);
  let stage_budget =
    Option.value stage_budget ~default:Roccc_datapath.Delay.default_stage_budget
  in
  if stage_budget < 0 then
    usage_error
      (Printf.sprintf "--stage-budget expects a non-negative integer, got %d"
         stage_budget);
  let decomp =
    Option.fold decomp ~none:Roccc_datapath.Delay.default_decomp
      ~some:decomp_of_flag
  in
  ( { Driver.default_options with
      Driver.target_ns;
      bus_elements = bus;
      unroll_inner_max = unroll_inner;
      stage_budget;
      decomp;
      disabled_passes },
    given )

let options_and_flags_term =
  Term.(
    const options_and_flags $ target_ns_arg $ bus_arg $ unroll_inner_arg
    $ stage_budget_arg $ decomp_arg $ disable_pass_arg)

let options_term = Term.(const fst $ options_and_flags_term)

(* Unknown or required pass names, and a dump after a pass these options
   skip, are usage errors caught before any compile. *)
let check_passes ?(dump_after = []) options =
  checked (Roccc_core.Pass.validate ~dump_after options)

(* ---- pass-manager configuration ---- *)

let verify_ir_arg =
  Arg.(
    value & flag
    & info [ "verify-ir" ]
        ~doc:
          "Run each pass's IR invariant verifier after the pass (also \
           enabled by ROCCC_VERIFY_IR=1).")

let differential_arg =
  Arg.(
    value & flag
    & info [ "differential" ]
        ~doc:
          "Co-run the C interpreter, VM evaluator and data-path evaluator \
           on deterministic vectors after layer boundaries, reporting the \
           first diverging pass (also ROCCC_DIFFERENTIAL=1).")

let dump_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:"Print the active IR after PASS runs (repeatable).")

let config_of verify_ir differential dump_after =
  let base = Roccc_core.Pass.default_config () in
  { base with
    Roccc_core.Pass.verify_ir = verify_ir || base.Roccc_core.Pass.verify_ir;
    differential = differential || base.Roccc_core.Pass.differential;
    dump_after }

let config_term =
  Term.(const config_of $ verify_ir_arg $ differential_arg $ dump_after_arg)

let kv_list_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let name = String.sub s 0 i in
      let values =
        String.sub s (i + 1) (String.length s - i - 1)
        |> String.split_on_char ','
        |> List.map (fun v ->
               match Int64.of_string_opt (String.trim v) with
               | Some x -> x
               | None -> failwith ("bad integer " ^ v))
      in
      Ok (name, Array.of_list values)
    | None -> Error (`Msg "expected NAME=v1,v2,...")
  in
  let print ppf (name, values) =
    Format.fprintf ppf "%s=%s" name
      (String.concat ","
         (Array.to_list values |> List.map Int64.to_string))
  in
  Arg.conv (parse, print)

(* ---- compile ---- *)

let compile_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write the VHDL design (and ROM init files) into DIR.")
  in
  let dump_arg =
    Arg.(
      value
      & opt_all (enum
                   [ "kernel", `Kernel; "transformed", `Transformed;
                     "dp-function", `Dp; "vm", `Vm; "datapath", `Datapath;
                     "dot", `Dot; "pipeline", `Pipeline; "vhdl", `Vhdl;
                     "passes", `Passes ])
          []
      & info [ "dump" ] ~docv:"STAGE"
          ~doc:
            "Print an intermediate stage: kernel, transformed, dp-function, \
             vm, datapath, dot, pipeline, vhdl, passes.")
  in
  (* --entry naming a [pipeline x = a -> b;] declaration compiles the
     process network instead of a single kernel: plan every stage, size
     the channels, co-simulate against the sequential composition, and
     (with -o) emit the network top level next to the stage designs. *)
  let run_network ~source ~config ~options ~out name =
    let net = Net.plan ~config ~options ~name source in
    print_string (Net.describe net);
    let s0 = List.hd net.Net.net_stages in
    let arrays =
      [ s0.Net.sg_in_array,
        Array.init s0.Net.sg_elements_in (fun i ->
            Int64.of_int ((5 * i) - 17 + (i * i mod 11))) ]
    in
    (match Net.verify ~arrays net with
    | [] ->
      print_endline "co-simulation: network output == sequential composition"
    | diffs ->
      List.iter (Printf.eprintf "roccc: co-simulation mismatch: %s\n") diffs;
      exit 1);
    match out with
    | None -> ()
    | Some dir ->
      write_files ~announce:true dir
        ((name ^ "_net.vhd", Net.network_vhdl net)
        :: List.concat_map
             (fun (sg : Net.stage) -> Driver.files sg.Net.sg_compiled)
             net.Net.net_stages)
  in
  let run file entry options out dumps testbench config =
    check_passes ~dump_after:config.Roccc_core.Pass.dump_after options;
    with_errors (fun () ->
        let source = read_file file in
        let is_network =
          List.exists
            (fun (pl : Roccc_cfront.Ast.pipeline_decl) ->
              String.equal pl.Roccc_cfront.Ast.pl_name entry)
            (try Net.pipelines_of_source source
             with Roccc_util.Diag.Error { where = "parse error"; _ } -> [])
        in
        if is_network then run_network ~source ~config ~options ~out entry
        else begin
        let c = Driver.compile ~config ~options ~entry source in
        ignore testbench;
        List.iter
          (fun d ->
            match d with
            | `Kernel ->
              print_endline (Roccc_hir.Kernel.describe c.Driver.kernel)
            | `Transformed ->
              print_endline
                (Roccc_cfront.Pretty.func_to_string
                   c.Driver.kernel.Roccc_hir.Kernel.transformed)
            | `Dp ->
              print_endline
                (Roccc_cfront.Pretty.func_to_string
                   c.Driver.kernel.Roccc_hir.Kernel.dp)
            | `Vm -> print_endline (Roccc_vm.Proc.to_string c.Driver.proc)
            | `Datapath ->
              print_endline (Roccc_datapath.Graph.to_string c.Driver.dp)
            | `Dot -> print_endline (Roccc_datapath.Graph.to_dot c.Driver.dp)
            | `Pipeline ->
              print_endline (Roccc_datapath.Pipeline.describe c.Driver.pipeline)
            | `Vhdl ->
              print_endline (Roccc_vhdl.Ast.to_string c.Driver.design)
            | `Passes -> print_endline (Driver.pass_pipeline_figure c))
          dumps;
        (match out with
        | Some dir ->
          write_files ~announce:true dir
            (Driver.files c
            @
            match testbench with
            | Some spec ->
              let arrays, scalars = spec in
              [ c.Driver.entry ^ "_tb.vhd",
                Roccc_core.Testbench.generate ~scalars ~arrays c ]
            | None -> [])
        | None -> ());
        if dumps = [] && out = None then print_string (Driver.report c)
        end)
  in
  let testbench_arg =
    Arg.(
      value
      & opt_all kv_list_conv []
      & info [ "tb-array" ] ~docv:"NAME=v1,v2,..."
          ~doc:
            "Also emit a self-checking testbench (<entry>_tb.vhd) driving \
             the data path with this input array (repeatable).")
  in
  let run' file entry options out dumps tb_arrays config =
    let testbench =
      if tb_arrays = [] then None else Some (tb_arrays, [])
    in
    run file entry options out dumps testbench config
  in
  let term =
    Term.(
      const run' $ file_arg $ entry_arg $ options_term $ out_arg $ dump_arg
      $ testbench_arg $ config_term)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a C kernel to VHDL.") term

(* ---- simulate ---- *)

let simulate_cmd =
  let array_arg =
    Arg.(
      value & opt_all kv_list_conv []
      & info [ "array" ] ~docv:"NAME=v1,v2,..."
          ~doc:"Input array contents (repeatable).")
  in
  let scalar_arg =
    Arg.(
      value & opt_all kv_list_conv []
      & info [ "scalar" ] ~docv:"NAME=v"
          ~doc:"Scalar live-in value (repeatable).")
  in
  let vcd_arg =
    Arg.(
      value & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Write a VCD waveform of the run to FILE (view in GTKWave).")
  in
  let run file entry options arrays scalars vcd =
    check_passes options;
    with_errors (fun () ->
        let source = read_file file in
        let c = Driver.compile ~options ~entry source in
        let scalars =
          List.map
            (fun (n, (vs : int64 array)) ->
              n, if Array.length vs > 0 then vs.(0) else 0L)
            scalars
        in
        let r = Driver.simulate ~scalars ~arrays c in
        Printf.printf "cycles: %d (latency %d, %d launches)\n"
          r.Roccc_hw.Engine.cycles r.Roccc_hw.Engine.pipeline_latency
          r.Roccc_hw.Engine.launches;
        Printf.printf "memory: %d reads, %d writes (reuse %.2fx)\n"
          r.Roccc_hw.Engine.memory_reads r.Roccc_hw.Engine.memory_writes
          r.Roccc_hw.Engine.reuse_ratio;
        List.iter
          (fun (name, data) ->
            Printf.printf "%s = [%s]\n" name
              (String.concat "; "
                 (Array.to_list data |> List.map Int64.to_string)))
          r.Roccc_hw.Engine.output_arrays;
        List.iter
          (fun (name, v) -> Printf.printf "%s = %Ld\n" name v)
          r.Roccc_hw.Engine.scalar_outputs;
        (match vcd with
        | Some path ->
          let dump =
            Roccc_hw.Vcd.of_simulation ~design:c.Driver.entry c.Driver.kernel
              r
          in
          let oc = open_out path in
          output_string oc (Roccc_hw.Vcd.render dump);
          close_out oc;
          Printf.printf "wrote %s\n" path
        | None -> ());
        let diffs = Driver.verify ~scalars ~arrays c in
        if diffs = [] then print_endline "co-simulation: hardware = software"
        else begin
          print_endline "co-simulation MISMATCH:";
          List.iter print_endline diffs;
          exit 1
        end)
  in
  let term =
    Term.(
      const run $ file_arg $ entry_arg $ options_term $ array_arg $ scalar_arg
      $ vcd_arg)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Compile and run a kernel on the cycle-accurate execution model.")
    term

(* ---- compile-all ---- *)

let compile_all_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write each kernel's VHDL into DIR.")
  in
  let run file out =
    with_errors (fun () ->
        let source = read_file file in
        let oks, errs = Driver.compile_all source in
        List.iter
          (fun (name, c) ->
            Printf.printf
              "%-20s %5d slices @ %6.1f MHz, %d-stage pipeline, %d latch \
               bits\n"
              name c.Driver.area.Roccc_fpga.Area.slices
              c.Driver.area.Roccc_fpga.Area.clock_mhz
              (Roccc_datapath.Pipeline.latency c.Driver.pipeline)
              c.Driver.pipeline.Roccc_datapath.Pipeline.latch_bits;
            match out with
            | Some dir ->
              write_files dir (Driver.files c)
            | None -> ())
          oks;
        List.iter
          (fun (name, msg) -> Printf.printf "%-20s FAILED: %s\n" name msg)
          errs;
        if oks = [] && errs <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "compile-all"
       ~doc:"Compile every kernel function (array/pointer params) in a file.")
    Term.(const run $ file_arg $ out_arg)

(* ---- profile ---- *)

let profile_cmd =
  let array_arg =
    Arg.(
      value & opt_all kv_list_conv []
      & info [ "array" ] ~docv:"NAME=v1,v2,..."
          ~doc:"Input array contents (repeatable).")
  in
  let scalar_arg =
    Arg.(
      value & opt_all kv_list_conv []
      & info [ "scalar" ] ~docv:"NAME=v"
          ~doc:"Scalar argument (repeatable).")
  in
  let run file entry arrays scalars =
    with_errors (fun () ->
        let source = read_file file in
        let scalars =
          List.map
            (fun (n, (vs : int64 array)) ->
              n, if Array.length vs > 0 then vs.(0) else 0L)
            scalars
        in
        print_string
          (Roccc_core.Profile.report
             (Roccc_core.Profile.analyze ~scalars ~arrays ~entry source)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a program through the interpreter and rank its loops by \
          dynamic operation count (hardware-candidate identification).")
    Term.(const run $ file_arg $ entry_arg $ array_arg $ scalar_arg)

(* ---- bench ---- *)

let bench_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL")
  in
  let run name =
    with_errors (fun () ->
        match Kernels.find name with
        | None ->
          Printf.eprintf "unknown kernel %s; available: %s\n" name
            (String.concat ", "
               (List.map
                  (fun b -> b.Kernels.bench_name)
                  Kernels.gallery));
          exit 1
        | Some b ->
          let c, r, diffs = Kernels.run b in
          print_string (Driver.report c);
          Printf.printf "simulation: %d cycles, %d launches, reuse %.2fx\n"
            r.Roccc_hw.Engine.cycles r.Roccc_hw.Engine.launches
            r.Roccc_hw.Engine.reuse_ratio;
          if diffs = [] then print_endline "co-simulation: hardware = software"
          else begin
            List.iter print_endline diffs;
            exit 1
          end)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Compile and simulate a built-in Table 1 kernel.")
    (Term.(const run $ name_arg))

(* ---- batch ---- *)

let batch_cmd =
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE.c|DIR")
  in
  let table1_arg =
    Arg.(
      value & flag
      & info [ "table1" ]
          ~doc:"Enqueue the nine built-in Table 1 kernels as jobs.")
  in
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains; 0 or omitted means auto (the machine's recommended count).")
  in
  let cache_arg =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Memoize stage outputs content-addressed on (source, entry, \
             options), persisting finished artifacts under the cache \
             directory.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt string Svc_cache.default_disk_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Disk cache location (with $(b,--cache)).")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write per-pass spans and batch metadata as Chrome trace_event \
             JSON (view at chrome://tracing or ui.perfetto.dev).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write each job's VHDL into DIR/<job-label>/.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Design-space sweep: compile the single given kernel under the \
             grid of $(b,--sweep-unroll) x $(b,--sweep-bus) options \
             (requires one FILE.c and $(b,-e)).")
  in
  let sweep_entry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "entry" ] ~docv:"FUNC"
          ~doc:"Kernel function for $(b,--sweep).")
  in
  let sweep_unroll_arg =
    Arg.(
      value & opt (list int) [ 1; 2; 4 ]
      & info [ "sweep-unroll" ] ~docv:"N,..."
          ~doc:"Outer-loop unroll factors for the sweep grid.")
  in
  let sweep_bus_arg =
    Arg.(
      value & opt (list int) [ 1; 2; 4 ]
      & info [ "sweep-bus" ] ~docv:"N,..."
          ~doc:"Memory bus widths (elements) for the sweep grid.")
  in
  let sweep_target_ns_arg =
    Arg.(
      value & opt (list float) []
      & info [ "sweep-target-ns" ] ~docv:"NS,..."
          ~doc:
            "Clock targets (combinational ns per stage) as a third sweep \
             axis; empty (default) sweeps only $(b,--target-ns).")
  in
  let c_files_of_dir dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  (* One job per kernel-eligible function of each file; an unparseable file
     still becomes a job so its error is reported per-job, not fatally. *)
  let jobs_of_file options path =
    let source = read_file path in
    let base = Filename.remove_extension (Filename.basename path) in
    match Driver.eligible_entries source with
    | [] -> []
    | [ entry ] ->
      [ { Service.label = base ^ ":" ^ entry; source; entry; options;
          luts = [] } ]
    | entries ->
      List.map
        (fun entry ->
          { Service.label = base ^ ":" ^ entry; source; entry; options;
            luts = [] })
        entries
    | exception Roccc_util.Diag.Error { where = "parse error"; _ } ->
      [ { Service.label = base; source; entry = "?"; options; luts = [] } ]
  in
  let run paths table1 (options, given) jobs use_cache cache_dir trace_out out
      sweep sweep_entry sweep_unroll sweep_bus sweep_target config =
    (* the gallery jobs compile at each kernel's own tuned options *)
    (match given with
    | flag :: _ when table1 ->
      usage_error
        (Printf.sprintf
           "batch: %s cannot be combined with --table1 (the Table 1 \
            kernels compile at their own tuned options; only \
            --disable-pass applies to them)"
           flag)
    | _ -> ());
    check_passes ~dump_after:config.Roccc_core.Pass.dump_after options;
    with_errors (fun () ->
        let jobs =
          match jobs with
          | None -> 0 (* auto: the machine's recommended domain count *)
          | Some n -> checked (Server.check_jobs ~flag:"--jobs" n)
        in
        (* Sweep axes: bogus values die here with a friendly message;
           repeated points are compiled once, not twice. *)
        let sweep_unroll =
          checked
            (Server.check_positive_int_list ~flag:"--sweep-unroll" sweep_unroll)
        in
        let sweep_bus =
          checked (Server.check_positive_int_list ~flag:"--sweep-bus" sweep_bus)
        in
        let sweep_target =
          if sweep_target = [] then []
          else
            checked
              (Server.check_positive_float_list ~flag:"--sweep-target-ns"
                 sweep_target)
        in
        let files =
          List.concat_map
            (fun p ->
              if not (Sys.file_exists p) then begin
                Printf.eprintf "roccc batch: no such file or directory: %s\n" p;
                exit 2
              end
              else if Sys.is_directory p then c_files_of_dir p
              else [ p ])
            paths
        in
        let batch_jobs =
          if sweep then begin
            let file, entry =
              match files, sweep_entry with
              | [ f ], Some e -> f, e
              | _ ->
                Printf.eprintf
                  "roccc batch --sweep needs exactly one FILE.c and -e FUNC\n";
                exit 2
            in
            Service.sweep_jobs ~base:options ~target_ns:sweep_target
              ~source:(read_file file) ~entry ~unroll_factors:sweep_unroll
              ~bus_widths:sweep_bus ()
          end
          else
            (if table1 then
               Service.table1_jobs
                 ~disabled_passes:options.Driver.disabled_passes ()
             else [])
            @ List.concat_map (jobs_of_file options) files
        in
        if batch_jobs = [] then begin
          Printf.eprintf
            "roccc batch: no jobs (give FILE.c/DIR arguments, --table1, or \
             --sweep)\n";
          exit 2
        end;
        let cache =
          if use_cache then Some (Svc_cache.create ~disk_dir:cache_dir ())
          else None
        in
        let trace = Option.map (fun _ -> Svc_trace.create ()) trace_out in
        let report =
          Service.run_batch ?cache ~config ?trace ~num_domains:jobs batch_jobs
        in
        print_endline (Service.summary report);
        (match out with
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let written =
            List.fold_left
              (fun n (_, (s : Service.success)) ->
                write_files (Filename.concat dir s.Service.r_label)
                  s.Service.r_vhdl;
                n + List.length s.Service.r_vhdl)
              0 (Service.successes report)
          in
          Printf.printf "wrote %d file(s) under %s\n" written dir
        | None -> ());
        (match trace_out, trace with
        | Some path, Some tr ->
          let oc = open_out path in
          output_string oc
            (Svc_trace.to_chrome_json ~meta:(Service.trace_meta report) tr);
          close_out oc;
          Printf.printf "wrote %s\n" path
        | _ -> ());
        if Service.successes report = [] then exit 1)
  in
  let term =
    Term.(
      const run $ paths_arg $ table1_arg $ options_and_flags_term $ jobs_arg
      $ cache_arg
      $ cache_dir_arg $ trace_arg $ out_arg $ sweep_arg $ sweep_entry_arg
      $ sweep_unroll_arg $ sweep_bus_arg $ sweep_target_ns_arg $ config_term)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
        "Compile many kernels in parallel with content-addressed caching \
         and structured tracing.")
    term

(* ---- tune ---- *)

let tune_cmd =
  let module Objective = Roccc_tune.Objective in
  let module Search = Roccc_tune.Search in
  let target_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE.c|KERNEL"
          ~doc:
            "A C source file (a $(i,.c) suffix may be omitted) or the name \
             of a built-in Table 1 kernel.")
  in
  let entry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "entry" ] ~docv:"FUNC"
          ~doc:
            "Kernel function (default: the file's single kernel-eligible \
             function, or the built-in kernel's entry).")
  in
  let objective_arg =
    Arg.(
      value & opt string "max-mhz"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "What to optimize: $(b,max-mhz) (fastest clock within \
             $(b,--slice-budget)), $(b,min-slices) (smallest design \
             meeting $(b,--target-mhz)) or $(b,min-latch-bits) (fewest \
             pipeline-register bits).")
  in
  let slice_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "slice-budget" ] ~docv:"N"
          ~doc:
            "Feasibility bound for $(b,max-mhz): designs over N slices are \
             discarded (default: the whole XC2V2000).")
  in
  let target_mhz_arg =
    Arg.(
      value & opt (some float) None
      & info [ "target-mhz" ] ~docv:"MHZ"
          ~doc:
            "Feasibility bound for $(b,min-slices): designs clocking below \
             MHZ are discarded.")
  in
  let unroll_range_arg =
    Arg.(
      value & opt (list int) Search.default_space.Search.sp_unroll
      & info [ "unroll" ] ~docv:"N,..."
          ~doc:"Outer-loop unroll factors to explore.")
  in
  let bus_range_arg =
    Arg.(
      value & opt (list int) Search.default_space.Search.sp_bus
      & info [ "bus" ] ~docv:"N,..."
          ~doc:"Memory bus widths (elements per access) to explore.")
  in
  let target_ns_range_arg =
    Arg.(
      value & opt (list float) Search.default_space.Search.sp_target_ns
      & info [ "target-ns" ] ~docv:"NS,..."
          ~doc:"Per-stage combinational clock targets to explore.")
  in
  let stage_budget_range_arg =
    Arg.(
      value & opt (list int) Search.default_space.Search.sp_stage_budget
      & info [ "stage-budget" ] ~docv:"N,..."
          ~doc:
            "Wide-operator stage budgets to explore: each caps the stage \
             count of a multi-stage (>32-bit) operator region; 0 means \
             the decomposition's natural depth. Single-cycle kernels are \
             unaffected.")
  in
  let decomp_range_arg =
    Arg.(
      value & opt (list string)
        (List.map Roccc_datapath.Delay.decomp_name
           Search.default_space.Search.sp_decomp)
      & info [ "decomp" ] ~docv:"NAME,..."
          ~doc:
            "Wide-multiplier decompositions to explore: $(b,csa) \
             (partial products + carry-save 3:2 compression tree) or \
             $(b,addtree) (binary adder tree).")
  in
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains; 0 or omitted means auto (the machine's recommended count).")
  in
  let pareto_arg =
    Arg.(
      value & opt (some string) None
      & info [ "pareto" ] ~docv:"FILE"
          ~doc:
            "Write the Pareto front, per-candidate statuses and pruning \
             statistics as JSON.")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write per-candidate and per-pass spans as Chrome trace_event \
             JSON; passes reused from the search's shared cache \
             appear as zero-duration $(i,cached) spans.")
  in
  let run target entry objective slice_budget target_mhz unroll bus target_ns
      stage_budget decomp disabled_passes jobs pareto trace_out config =
    with_errors (fun () ->
        let objective =
          checked (Objective.parse ~name:objective ~slice_budget ~target_mhz)
        in
        let unroll =
          checked (Server.check_positive_int_list ~flag:"--unroll" unroll)
        in
        let bus = checked (Server.check_positive_int_list ~flag:"--bus" bus) in
        let target_ns =
          checked
            (Server.check_positive_float_list ~flag:"--target-ns" target_ns)
        in
        let stage_budget =
          checked
            (Server.check_nonneg_int_list ~flag:"--stage-budget" stage_budget)
        in
        let decomp =
          if decomp = [] then usage_error "--decomp expects a non-empty list";
          List.map decomp_of_flag decomp
        in
        let jobs =
          match jobs with
          | None -> 0
          | Some n -> checked (Server.check_jobs ~flag:"--jobs" n)
        in
        (* TARGET is a file, a file missing its .c suffix, or a built-in
           Table 1 kernel name. *)
        let entry_of_source file source =
          match entry with
          | Some e -> e
          | None -> (
            match Driver.eligible_entries source with
            | [ e ] -> e
            | [] ->
              usage_error (file ^ ": no kernel-eligible function (give -e FUNC)")
            | es ->
              usage_error
                (Printf.sprintf "%s has several kernel functions (%s); pick \
                                 one with -e"
                   file (String.concat ", " es)))
        in
        let source, entry, luts, base =
          if Sys.file_exists target && not (Sys.is_directory target) then
            let source = read_file target in
            (source, entry_of_source target source, [], Driver.default_options)
          else if Sys.file_exists (target ^ ".c") then
            let file = target ^ ".c" in
            let source = read_file file in
            (source, entry_of_source file source, [], Driver.default_options)
          else
            match Kernels.find (Filename.basename target) with
            | Some b ->
              ( b.Kernels.source,
                Option.value entry ~default:b.Kernels.entry,
                b.Kernels.luts,
                b.Kernels.tune Driver.default_options )
            | None ->
              usage_error
                (Printf.sprintf "no such file or built-in kernel: %s" target)
        in
        let base = { base with Driver.disabled_passes } in
        check_passes ~dump_after:config.Roccc_core.Pass.dump_after base;
        let settings =
          { Search.st_objective = objective;
            st_space =
              { Search.sp_unroll = unroll;
                sp_bus = bus;
                sp_target_ns = target_ns;
                sp_stage_budget = stage_budget;
                sp_decomp = decomp };
            st_domains = jobs;
            st_base = base }
        in
        let cache = Svc_cache.create () in
        let trace = Option.map (fun _ -> Svc_trace.create ()) trace_out in
        let result = Search.run ~cache ?trace ~config ~luts settings ~source ~entry in
        print_string (Search.table result);
        (match pareto with
        | Some path ->
          let oc = open_out path in
          output_string oc (Search.to_json result);
          close_out oc;
          Printf.printf "wrote %s\n" path
        | None -> ());
        (match trace_out, trace with
        | Some path, Some tr ->
          let oc = open_out path in
          output_string oc (Svc_trace.to_chrome_json tr);
          close_out oc;
          Printf.printf "wrote %s\n" path
        | _ -> ());
        if result.Search.res_front = [] then begin
          Printf.eprintf "roccc tune: empty front — no feasible candidate\n";
          exit 1
        end)
  in
  let term =
    Term.(
      const run $ target_arg $ entry_arg $ objective_arg $ slice_budget_arg
      $ target_mhz_arg $ unroll_range_arg $ bus_range_arg
      $ target_ns_range_arg $ stage_budget_range_arg $ decomp_range_arg
      $ disable_pass_arg $ jobs_arg $ pareto_arg $ trace_arg $ config_term)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Pareto autotuner: search the unroll x bus x clock-target space \
          for one kernel under an objective, costing every point with the \
          exact estimate-only back end and paying for full compiles only \
          on the Pareto front.")
    term

(* ---- serve ---- *)

let resolve_serve_limits ~jobs ~queue_depth ~deadline_ms ~max_request_bytes =
  checked
    (Server.validate_limits
       { Server.workers =
           (match jobs with
           | None -> 0
           | Some n -> checked (Server.check_jobs ~flag:"--jobs" n));
         queue_depth;
         deadline_ms;
         max_request_bytes })

let install_fault_plan (inject : string option) : unit =
  match inject with
  | Some spec -> (
    match Faults.parse spec with
    | Ok plan -> Faults.install plan
    | Error msg -> usage_error ("--inject-fault: " ^ msg))
  | None -> (
    match Faults.from_env () with
    | Ok (Some plan) -> Faults.install plan
    | Ok None -> ()
    | Error msg -> usage_error (Faults.env_var ^ ": " ^ msg))

(* Bind a fresh listening Unix socket, replacing any stale file a dead
   server left behind. *)
let bind_unix_socket (path : string) : Unix.file_descr =
  if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  sock

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains; 0 or omitted means auto (the machine's recommended count).")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int Server.default_limits.Server.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission queue bound; requests beyond it are shed with an \
             $(i,overloaded) response instead of queueing without bound.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; compilation is cancelled \
             cooperatively at the next pass boundary once it expires. A \
             request's own $(i,deadline_ms) field overrides this.")
  in
  let max_bytes_arg =
    Arg.(
      value & opt int Server.default_limits.Server.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Reject request lines longer than N bytes.")
  in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix socket instead of stdin, serving any number \
             of simultaneous connections over one shared admission queue \
             and worker pool (metrics and cache persist across \
             connections).")
  in
  let cache_arg =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:"Memoize stage outputs and persist artifacts on disk.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt string Svc_cache.default_disk_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Disk cache location (with $(b,--cache)).")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write request/pass spans and queue-depth counters as Chrome \
             trace_event JSON on exit.")
  in
  let inject_fault_arg =
    Arg.(
      value & opt (some string) None
      & info [ "inject-fault" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. \
             $(i,cache_read:0.5,driver_pass:0.1) (points: scheduler_claim, \
             driver_pass, cache_read, cache_write; rates in (0,1], default \
             1). Overrides $(b,ROCCC_FAULT).")
  in
  let run jobs queue_depth deadline_ms max_request_bytes socket use_cache
      cache_dir trace_out inject config =
    checked
      (Roccc_core.Pass.check_names ~dump_after:config.Roccc_core.Pass.dump_after
         Driver.default_options);
    with_errors (fun () ->
        let limits =
          resolve_serve_limits ~jobs ~queue_depth ~deadline_ms
            ~max_request_bytes
        in
        install_fault_plan inject;
        let cache =
          if use_cache then Some (Svc_cache.create ~disk_dir:cache_dir ())
          else None
        in
        let trace = Option.map (fun _ -> Svc_trace.create ()) trace_out in
        let srv = Server.create ?cache ~config ?trace ~limits () in
        (* SIGTERM / SIGINT only flag the server; admission stops at the
           next line and queued requests drain before exit. A write to a
           client that hung up must fail with EPIPE (counted as a write
           error), not kill the process with SIGPIPE. *)
        let on_signal = Sys.Signal_handle (fun _ -> Server.request_stop srv) in
        (try
           Sys.set_signal Sys.sigterm on_signal;
           Sys.set_signal Sys.sigint on_signal;
           Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ | Sys_error _ -> ());
        let summarize (s : Roccc_service.Metrics.snapshot) =
          Printf.eprintf
            "roccc serve: drained after %.1fs: %d received, %d ok, %d \
             failed, %d deadline_exceeded, %d shed, %d bad_request\n%!"
            s.Roccc_service.Metrics.s_uptime_s
            s.Roccc_service.Metrics.s_received s.Roccc_service.Metrics.s_ok
            s.Roccc_service.Metrics.s_failed
            s.Roccc_service.Metrics.s_deadline
            s.Roccc_service.Metrics.s_shed
            s.Roccc_service.Metrics.s_bad_request
        in
        (match socket with
        | None -> summarize (Server.serve srv stdin stdout)
        | Some path ->
          let sock = bind_unix_socket path in
          Printf.eprintf "roccc serve: listening on %s\n%!" path;
          let snap = Server.serve_socket srv sock in
          (try Unix.close sock with Unix.Unix_error _ -> ());
          (try Sys.remove path with Sys_error _ -> ());
          summarize snap);
        (match trace_out, trace with
        | Some path, Some tr ->
          let oc = open_out path in
          output_string oc (Svc_trace.to_chrome_json tr);
          close_out oc;
          Printf.eprintf "roccc serve: wrote %s\n%!" path
        | _ -> ()))
  in
  let term =
    Term.(
      const run $ jobs_arg $ queue_depth_arg $ deadline_arg $ max_bytes_arg
      $ socket_arg $ cache_arg $ cache_dir_arg $ trace_arg $ inject_fault_arg
      $ config_term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compile server: line-delimited JSON requests on stdin (or a Unix \
          socket, serving concurrent connections) with bounded admission, \
          per-request deadlines, health snapshots and clean drain on \
          EOF/SIGTERM.")
    term

let main_cmd =
  let doc = "ROCCC-style C-to-VHDL compiler (DATE 2005 reproduction)" in
  Cmd.group (Cmd.info "roccc" ~doc)
    [ compile_cmd; compile_all_cmd; simulate_cmd; profile_cmd; bench_cmd;
      batch_cmd; tune_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
