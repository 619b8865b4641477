(** VHDL testbench generation: given a compiled kernel and concrete inputs,
    emit a self-checking testbench that drives the data-path entity with the
    per-iteration window values and asserts the expected outputs after the
    pipeline latency — the artifact a user would hand to a VHDL simulator to
    validate the generated design against the software semantics. *)

module Kernel = Roccc_hir.Kernel
module Pipeline = Roccc_datapath.Pipeline
module Dp_eval = Roccc_datapath.Dp_eval
module Lut_conv = Roccc_hir.Lut_conv
module Ast = Roccc_cfront.Ast
module Diag = Roccc_util.Diag

(* Window values per iteration, in kernel launch order — the same schedule
   the smart buffer produces. *)
let iteration_inputs (c : Driver.compiled)
    ~(arrays : (string * int64 array) list)
    ~(scalars : (string * int64) list) : (string * int64) list list =
  let k = c.Driver.kernel in
  let windows_of (w : Kernel.window_input) =
    let data =
      match List.assoc_opt w.Kernel.win_array arrays with
      | Some d -> d
      | None ->
        Diag.failf "testbench"
          "testbench: missing input array %s" w.Kernel.win_array
    in
    let dims = w.Kernel.win_dims in
    let flat pos = List.fold_left2 (fun acc d p -> (acc * d) + p) 0 dims pos in
    let geometry =
      if k.Kernel.loops = [] then [ { Kernel.index = ""; lower = 0; count = 1; step = 0 } ]
      else k.Kernel.loops
    in
    let rec positions (dims : Kernel.loop_dim list) : int list list =
      match dims with
      | [] -> [ [] ]
      | d :: rest ->
        let tails = positions rest in
        List.concat_map
          (fun i ->
            List.map
              (fun tail -> (d.Kernel.lower + (i * d.Kernel.step)) :: tail)
              tails)
          (List.init d.Kernel.count (fun i -> i))
    in
    let origins = positions geometry in
    List.map
      (fun origin ->
        List.map
          (fun (offset, name) ->
            let pos =
              if k.Kernel.loops = [] then offset
              else List.map2 (fun o c -> o + c) origin offset
            in
            name, data.(flat pos))
          w.Kernel.win_scalars)
      origins
  in
  let per_window = List.map windows_of k.Kernel.windows in
  let launch_count =
    match per_window with [] -> 1 | first :: _ -> List.length first
  in
  List.init launch_count (fun i ->
      List.concat_map (fun ws -> List.nth ws i) per_window
      @ List.map
          (fun (p : Ast.param) ->
            match List.assoc_opt p.Ast.pname scalars with
            | Some v -> p.Ast.pname, v
            | None ->
              Diag.failf "testbench" "testbench: missing scalar %s" p.Ast.pname)
          k.Kernel.scalar_inputs)

let literal (kind : Ast.ikind) (v : int64) : string =
  if kind.Ast.signed then Printf.sprintf "to_signed(%Ld, %d)" v kind.Ast.bits
  else
    Printf.sprintf "to_unsigned(%Ld, %d)"
      (Roccc_util.Bits.truncate_unsigned kind.Ast.bits v)
      kind.Ast.bits

(** Generate the testbench text. [arrays]/[scalars] provide the stimulus;
    expected outputs come from the data-path evaluator (which the test suite
    keeps equal to the C interpreter). *)
let generate ?(scalars = []) ?(arrays = []) (c : Driver.compiled) : string =
  let k = c.Driver.kernel in
  let dp_name = c.Driver.proc.Roccc_vm.Proc.pname in
  (* +1 for the output register the generator places at the top level *)
  let latency = Pipeline.latency c.Driver.pipeline + 1 in
  let stimulus = iteration_inputs c ~arrays ~scalars in
  let lut_bindings = List.map Lut_conv.interp_binding c.Driver.luts in
  let results = Dp_eval.run_stream ~luts:lut_bindings c.Driver.dp stimulus in
  let kind_of_port name =
    let param =
      List.find_opt
        (fun (p : Ast.param) -> String.equal p.Ast.pname name)
        k.Kernel.dp.Ast.params
    in
    match param with
    | Some { Ast.ptype = Ast.Tint kd | Ast.Tptr kd; _ } -> kd
    | _ -> Ast.int32_kind
  in
  let in_ports =
    List.concat_map
      (fun (w : Kernel.window_input) -> List.map snd w.Kernel.win_scalars)
      k.Kernel.windows
    @ List.map (fun (p : Ast.param) -> p.Ast.pname) k.Kernel.scalar_inputs
  in
  let out_ports = List.map (fun (o : Kernel.output) -> o.Kernel.port) k.Kernel.outputs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "-- self-checking testbench for %s: %d stimulus vectors, latency %d\n"
       dp_name (List.length stimulus) latency);
  Buffer.add_string buf
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  Buffer.add_string buf (Printf.sprintf "entity %s_tb is\nend entity %s_tb;\n\n" dp_name dp_name);
  Buffer.add_string buf
    (Printf.sprintf "architecture test of %s_tb is\n" dp_name);
  Buffer.add_string buf "  signal clk : std_logic := '0';\n";
  Buffer.add_string buf "  signal rst : std_logic := '1';\n";
  List.iter
    (fun name ->
      let kd = kind_of_port name in
      Buffer.add_string buf
        (Printf.sprintf "  signal %s : %s(%d downto 0) := (others => '0');\n"
           name
           (if kd.Ast.signed then "signed" else "unsigned")
           (kd.Ast.bits - 1)))
    (in_ports @ out_ports);
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf "  clk <= not clk after 5 ns;\n\n";
  Buffer.add_string buf
    (Printf.sprintf "  dut : entity work.%s\n    port map (clk => clk, rst => rst" dp_name);
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf ",\n      %s => %s" name name))
    (in_ports @ out_ports);
  Buffer.add_string buf ");\n\n";
  Buffer.add_string buf "  stimulus : process\n  begin\n";
  Buffer.add_string buf "    rst <= '1';\n    wait until rising_edge(clk);\n";
  Buffer.add_string buf "    rst <= '0';\n";
  List.iteri
    (fun i inputs ->
      List.iter
        (fun (name, v) ->
          let kd = kind_of_port name in
          Buffer.add_string buf
            (Printf.sprintf "    %s <= %s;\n" name (literal kd v)))
        inputs;
      Buffer.add_string buf "    wait until rising_edge(clk);\n";
      (* one self-check per retired iteration, latency cycles back *)
      if i >= latency then begin
        let r = List.nth results (i - latency) in
        List.iter
          (fun (port, v) ->
            let kd = kind_of_port port in
            Buffer.add_string buf
              (Printf.sprintf
                 "    assert %s = %s report \"iteration %d: %s mismatch\" \
                  severity error;\n"
                 port (literal kd v) (i - latency) port))
          r.Dp_eval.outputs
      end)
    stimulus;
  (* drain the pipeline and check the tail *)
  let n = List.length stimulus in
  for i = n to n + latency - 1 do
    Buffer.add_string buf "    wait until rising_edge(clk);\n";
    if i >= latency && i - latency < n then begin
      let r = List.nth results (i - latency) in
      List.iter
        (fun (port, v) ->
          let kd = kind_of_port port in
          Buffer.add_string buf
            (Printf.sprintf
               "    assert %s = %s report \"iteration %d: %s mismatch\" \
                severity error;\n"
               port (literal kd v) (i - latency) port))
        r.Dp_eval.outputs
    end
  done;
  Buffer.add_string buf
    "    report \"testbench finished\" severity note;\n    wait;\n";
  Buffer.add_string buf "  end process;\nend architecture test;\n";
  Buffer.contents buf
