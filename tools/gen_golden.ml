(* Regenerate the test/golden IR dump, VHDL and VCD digest files:
     dune exec tools/gen_golden.exe -- test/golden
   Run from the repository root after an intentional IR or printer change,
   then review the diff. *)

module Pass = Roccc_core.Pass
module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels

let dump_passes =
  [ "parse"; "constant-fold"; "lower-to-suifvm"; "datapath-build";
    "pipelining"; "retiming"; "vhdl-generation" ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let b = Kernels.fir in
  let dumps = ref [] in
  let config =
    { (Pass.default_config ()) with
      Pass.dump_after = dump_passes;
      on_dump = (fun name text -> dumps := !dumps @ [ name, text ]) }
  in
  let (_ : Driver.compiled) =
    Driver.compile ~config
      ~options:(b.Kernels.tune Driver.default_options)
      ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
  in
  List.iter
    (fun name ->
      match List.rev (List.filter (fun (n, _) -> n = name) !dumps) with
      | (_, text) :: _ ->
        let path = Filename.concat dir (Printf.sprintf "fir.%s.txt" name) in
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
      | [] -> failwith ("no dump for " ^ name))
    dump_passes;
  (* the process-network plan for the two-kernel gallery pipeline *)
  let module Net = Roccc_net.Net in
  let quiet =
    { (Pass.default_config ()) with Pass.on_dump = (fun _ _ -> ()) }
  in
  let net =
    Net.plan ~config:quiet ~name:Net.gallery_pipeline Net.gallery_source
  in
  let text = Net.describe net in
  let path = Filename.concat dir "stream.net.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

(* one digest line per gallery kernel (plus the column pass of the wavelet
   engine) over its generated VHDL and ROM init files, at tuned options *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let hex s = Digest.to_hex (Digest.string s) in
  let line (b : Kernels.benchmark) =
    let d = (Kernels.compile b).Driver.design in
    Printf.sprintf "%s vhdl=%s rom=%s\n" b.Kernels.bench_name
      (hex (Roccc_vhdl.Ast.to_string d))
      (hex
         (String.concat ""
            (List.map
               (fun t ->
                 t.Roccc_hir.Lut_conv.lut_name ^ "\n"
                 ^ Roccc_hir.Lut_conv.to_init_text t)
               d.Roccc_vhdl.Ast.roms)))
  in
  let text =
    String.concat "" (List.map line (Kernels.gallery @ [ Kernels.wavelet_cols ]))
  in
  let path = Filename.concat dir "gallery.vhdl.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

(* one MD5 line per kernel over the VCD of its execution-model run at the
   benchmark's own inputs: the cycle engine's launches, retirements and
   controller states, byte for byte *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let line (b : Kernels.benchmark) =
    let c = Kernels.compile b in
    let r =
      Driver.simulate ~scalars:b.Kernels.scalars ~arrays:(b.Kernels.arrays ()) c
    in
    let text =
      Roccc_hw.Vcd.render
        (Roccc_hw.Vcd.of_simulation ~design:c.Driver.entry c.Driver.kernel r)
    in
    Printf.sprintf "%s vcd=%s\n" b.Kernels.bench_name
      (Digest.to_hex (Digest.string text))
  in
  let text =
    String.concat "" (List.map line [ Kernels.fir; Kernels.wavelet ])
  in
  let path = Filename.concat dir "vcd.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let text = Interp_cases.golden () in
  let path = Filename.concat dir "interp.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let text = Error_cases.golden () in
  let path = Filename.concat dir "errors.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let text = Op_cases.golden () in
  let path = Filename.concat dir "ops.vhdl.txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
