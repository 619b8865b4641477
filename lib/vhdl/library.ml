(** The pre-existing parameterized VHDL component library (paper §4.1): the
    controllers "are all implemented as pre-existing parameterized FSMs in a
    VHDL library". This module renders those components — a sequential-scan
    address generator, a sliding-window smart buffer, and the higher-level
    controller FSM — as generic VHDL entities, and assembles the full
    execution-model system (Figure 2) around a compiled data path for 1-D
    single-window kernels. *)


(* ------------------------------------------------------------------ *)
(* Parameterized library entities (generic-based, self-contained)      *)
(* ------------------------------------------------------------------ *)

(** Sequential input address generator: scans [0, total) in bursts of
    [bus_elements], one request per cycle while enabled. *)
let address_generator_vhdl : string =
  {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity roccc_addr_gen is
  generic (
    total_words  : integer := 64;
    addr_width   : integer := 10
  );
  port (
    clk     : in  std_logic;
    rst     : in  std_logic;
    enable  : in  std_logic;
    address : out unsigned(addr_width - 1 downto 0);
    valid   : out std_logic;
    done    : out std_logic
  );
end entity roccc_addr_gen;

architecture rtl of roccc_addr_gen is
  signal counter : unsigned(addr_width - 1 downto 0);
  signal running : std_logic;
begin
  address <= counter;
  valid   <= running and enable;
  done    <= not running;
  scan : process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        counter <= (others => '0');
        running <= '1';
      elsif running = '1' and enable = '1' then
        if counter = to_unsigned(total_words - 1, addr_width) then
          running <= '0';
        else
          counter <= counter + 1;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;
|}

(** 1-D smart buffer: a shift register of window_size elements; data shifts
    in once per cycle; the window is exported in parallel once primed
    ("reuses live input data, cleans unused data and exports the present
    valid input data set", §4.1). *)
let smart_buffer_vhdl ~(window : int) ~(element_bits : int) : string =
  let taps =
    String.concat ";\n"
      (List.init window (fun i ->
           Printf.sprintf "    win%d : out signed(%d downto 0)" i
             (element_bits - 1)))
  in
  let exports =
    String.concat "\n"
      (List.init window (fun i ->
           Printf.sprintf "  win%d <= regs(%d);" i (window - 1 - i)))
  in
  Printf.sprintf
    {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity roccc_smart_buffer is
  port (
    clk      : in  std_logic;
    rst      : in  std_logic;
    din      : in  signed(%d downto 0);
    din_valid: in  std_logic;
%s;
    window_valid : out std_logic
  );
end entity roccc_smart_buffer;

architecture rtl of roccc_smart_buffer is
  type reg_file is array (0 to %d) of signed(%d downto 0);
  signal regs  : reg_file;
  signal fill  : unsigned(7 downto 0);
begin
%s
  window_valid <= '1' when fill >= to_unsigned(%d, 8) else '0';
  shift : process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        fill <= (others => '0');
      elsif din_valid = '1' then
        regs(0) <= din;
        for i in 1 to %d loop
          regs(i) <= regs(i - 1);
        end loop;
        if fill < to_unsigned(%d, 8) then
          fill <= fill + 1;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;
|}
    (element_bits - 1) taps (window - 1) (element_bits - 1) exports window
    (window - 1) window

(** 2-D smart buffer: line buffers for a [win_rows] x [win_cols] window
    sliding over an image with [row_length] columns — (win_rows - 1) full
    line FIFOs plus the window register column, the structure the generator
    sizes for 2-D kernels (Sobel, wavelet). Taps are named
    [win_<r>_<c>]. *)
let line_buffer_vhdl ~(win_rows : int) ~(win_cols : int) ~(row_length : int)
    ~(element_bits : int) : string =
  let depth = ((win_rows - 1) * row_length) + win_cols in
  let taps =
    String.concat ";\n"
      (List.concat_map
         (fun r ->
           List.init win_cols (fun c ->
               Printf.sprintf "    win_%d_%d : out signed(%d downto 0)" r c
                 (element_bits - 1)))
         (List.init win_rows (fun r -> r)))
  in
  let exports =
    String.concat "\n"
      (List.concat_map
         (fun r ->
           List.init win_cols (fun c ->
               (* newest element is regs(0); tap (r, c) looks back by
                  (win_rows-1-r) lines plus (win_cols-1-c) elements *)
               let back =
                 ((win_rows - 1 - r) * row_length) + (win_cols - 1 - c)
               in
               Printf.sprintf "  win_%d_%d <= regs(%d);" r c back))
         (List.init win_rows (fun r -> r)))
  in
  Printf.sprintf
    {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity roccc_line_buffer is
  port (
    clk      : in  std_logic;
    rst      : in  std_logic;
    din      : in  signed(%d downto 0);
    din_valid: in  std_logic;
%s;
    window_valid : out std_logic
  );
end entity roccc_line_buffer;

architecture rtl of roccc_line_buffer is
  type reg_file is array (0 to %d) of signed(%d downto 0);
  signal regs : reg_file;
  signal fill : unsigned(15 downto 0);
begin
%s
  window_valid <= '1' when fill >= to_unsigned(%d, 16) else '0';
  shift : process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        fill <= (others => '0');
      elsif din_valid = '1' then
        regs(0) <= din;
        for i in 1 to %d loop
          regs(i) <= regs(i - 1);
        end loop;
        if fill < to_unsigned(%d, 16) then
          fill <= fill + 1;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;
|}
    (element_bits - 1) taps (depth - 1) (element_bits - 1) exports depth
    (depth - 1) depth

(** The higher-level controller FSM sequencing fill / steady / drain. *)
let controller_vhdl : string =
  {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity roccc_controller is
  generic (
    total_iterations : integer := 64;
    pipeline_latency : integer := 3
  );
  port (
    clk          : in  std_logic;
    rst          : in  std_logic;
    window_valid : in  std_logic;
    launch       : out std_logic;
    running      : out std_logic;
    finished     : out std_logic
  );
end entity roccc_controller;

architecture rtl of roccc_controller is
  type state_t is (s_filling, s_steady, s_draining, s_done);
  signal state    : state_t;
  signal launched : unsigned(31 downto 0);
  signal retired  : unsigned(31 downto 0);
begin
  launch   <= window_valid when (state = s_filling or state = s_steady) else '0';
  running  <= '0' when state = s_done else '1';
  finished <= '1' when state = s_done else '0';
  fsm : process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state    <= s_filling;
        launched <= (others => '0');
        retired  <= (others => '0');
      else
        if window_valid = '1' and (state = s_filling or state = s_steady) then
          launched <= launched + 1;
          state    <= s_steady;
        end if;
        if launched > retired then
          retired <= retired + 1;
        end if;
        if state = s_steady and launched = to_unsigned(total_iterations, 32) then
          state <= s_draining;
        end if;
        if state = s_draining and retired = to_unsigned(total_iterations, 32) then
          state <= s_done;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;
|}

(** Synchronous FIFO channel between two engines (process networks):
    standard circular-buffer FIFO with full/empty flags — the producer
    stalls on [full], the consumer on [empty], matching the simulator's
    backpressure semantics. *)
let fifo_vhdl : string =
  {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity roccc_fifo is
  generic (
    depth        : integer := 16;
    element_bits : integer := 32
  );
  port (
    clk    : in  std_logic;
    rst    : in  std_logic;
    wr_en  : in  std_logic;
    din    : in  signed(element_bits - 1 downto 0);
    full   : out std_logic;
    rd_en  : in  std_logic;
    dout   : out signed(element_bits - 1 downto 0);
    empty  : out std_logic
  );
end entity roccc_fifo;

architecture rtl of roccc_fifo is
  type mem_t is array (0 to depth - 1) of signed(element_bits - 1 downto 0);
  signal mem   : mem_t;
  signal wptr  : integer range 0 to depth - 1 := 0;
  signal rptr  : integer range 0 to depth - 1 := 0;
  signal count : integer range 0 to depth := 0;
begin
  full  <= '1' when count = depth else '0';
  empty <= '1' when count = 0 else '0';
  dout  <= mem(rptr);
  queue : process(clk)
    variable delta : integer;
  begin
    if rising_edge(clk) then
      if rst = '1' then
        wptr <= 0; rptr <= 0; count <= 0;
      else
        delta := 0;
        if wr_en = '1' and count < depth then
          mem(wptr) <= din;
          if wptr = depth - 1 then wptr <= 0; else wptr <= wptr + 1; end if;
          delta := delta + 1;
        end if;
        if rd_en = '1' and count > 0 then
          if rptr = depth - 1 then rptr <= 0; else rptr <= rptr + 1; end if;
          delta := delta - 1;
        end if;
        count <= count + delta;
      end if;
    end if;
  end process;
end architecture rtl;
|}

(* ------------------------------------------------------------------ *)
(* System assembly (Figure 2) for 1-D single-window kernels            *)
(* ------------------------------------------------------------------ *)

(** Render the Figure 2 system around a compiled data path: address
    generator -> BRAM port -> smart buffer -> data path, sequenced by the
    controller. The data-path entity is referenced by [dp_entity] with
    window ports [win_ports] (in window order) and output ports
    [out_ports]. 1-D unit-stride single-array kernels only (e.g. FIR). *)
let system_wrapper_vhdl ~(dp_entity : string) ~(element_bits : int)
    ~(win_ports : string list) ~(out_ports : (string * int) list)
    ~(total_words : int) ~(iterations : int) ~(latency : int) : string =
  let window = List.length win_ports in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (address_generator_vhdl);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (smart_buffer_vhdl ~window ~element_bits);
  Buffer.add_string buf "\n";
  Buffer.add_string buf controller_vhdl;
  Buffer.add_string buf "\n";
  let out_decls =
    String.concat ";\n"
      (List.map
         (fun (name, bits) ->
           Printf.sprintf "    %s : out signed(%d downto 0)" name (bits - 1))
         out_ports)
  in
  Buffer.add_string buf
    (Printf.sprintf
       {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %s_system is
  port (
    clk   : in  std_logic;
    rst   : in  std_logic;
    bram_data  : in  signed(%d downto 0);
    bram_valid : in  std_logic;
    bram_addr  : out unsigned(9 downto 0);
    bram_rd    : out std_logic;
%s;
    finished : out std_logic
  );
end entity %s_system;

architecture structural of %s_system is
%s
  signal window_valid : std_logic;
  signal launch       : std_logic;
begin
  u_addr : entity work.roccc_addr_gen
    generic map (total_words => %d, addr_width => 10)
    port map (clk => clk, rst => rst, enable => '1',
              address => bram_addr, valid => bram_rd, done => open);

  u_buffer : entity work.roccc_smart_buffer
    port map (clk => clk, rst => rst, din => bram_data,
              din_valid => bram_valid,
%s,
              window_valid => window_valid);

  u_control : entity work.roccc_controller
    generic map (total_iterations => %d, pipeline_latency => %d)
    port map (clk => clk, rst => rst, window_valid => window_valid,
              launch => launch, running => open, finished => finished);

  u_datapath : entity work.%s
    port map (clk => clk, rst => rst,
%s%s);
end architecture structural;
|}
       dp_entity (element_bits - 1) out_decls dp_entity dp_entity
       (String.concat "\n"
          (List.mapi
             (fun i _ ->
               Printf.sprintf "  signal w%d : signed(%d downto 0);" i
                 (element_bits - 1))
             win_ports))
       total_words
       (String.concat ",\n"
          (List.mapi (fun i _ -> Printf.sprintf "              win%d => w%d" i i) win_ports))
       iterations latency dp_entity
       (String.concat ",\n"
          (List.mapi
             (fun i p -> Printf.sprintf "              %s => w%d" p i)
             win_ports)
       ^ ",\n")
       (String.concat ",\n"
          (List.map
             (fun (name, _) -> Printf.sprintf "              %s => %s" name name)
             out_ports)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Network assembly (process networks): engines chained through FIFOs  *)
(* ------------------------------------------------------------------ *)

(** One stage of a network top level, as seen by the wiring generator. *)
type net_stage = {
  ns_entity : string;                 (** data-path entity name *)
  ns_element_bits : int;              (** stream element width *)
  ns_out_ports : (string * int) list; (** output ports (name, bits) *)
}

(** Render the network top level: each stage's Figure 2 system entity is
    instantiated and chained to the next through a [roccc_fifo] channel
    instance of the statically sized depth. The first stage keeps the
    external BRAM read interface; the last stage's output ports and the
    final [finished] are exported. FIFO full/empty drive the stall
    inputs the per-stage controllers observe (the simulator's
    credit-based launch gating is the behavioural model of that
    wiring). *)
let network_wrapper_vhdl ~(name : string) ~(stages : net_stage list)
    ~(fifo_depths : int list) : string =
  let n = List.length stages in
  if n < 2 then invalid_arg "network_wrapper_vhdl: need >= 2 stages";
  if List.length fifo_depths <> n - 1 then
    invalid_arg "network_wrapper_vhdl: need one depth per adjacent pair";
  let buf = Buffer.create 2048 in
  Buffer.add_string buf fifo_vhdl;
  Buffer.add_string buf "\n";
  let first = List.hd stages in
  let last = List.nth stages (n - 1) in
  let out_decls =
    String.concat ";\n"
      (List.map
         (fun (port, bits) ->
           Printf.sprintf "    %s : out signed(%d downto 0)" port (bits - 1))
         last.ns_out_ports)
  in
  (* one data/handshake signal bundle per channel *)
  let channel_signals =
    String.concat "\n"
      (List.mapi
         (fun i (st : net_stage) ->
           Printf.sprintf
             "  signal ch%d_din   : signed(%d downto 0);\n\
              \  signal ch%d_dout  : signed(%d downto 0);\n\
              \  signal ch%d_wr    : std_logic;\n\
              \  signal ch%d_rd    : std_logic;\n\
              \  signal ch%d_full  : std_logic;\n\
              \  signal ch%d_empty : std_logic;\n\
              \  signal st%d_done  : std_logic;"
             i (st.ns_element_bits - 1) i (st.ns_element_bits - 1) i i i i i)
         (List.filteri (fun i _ -> i < n - 1) stages))
  in
  let fifo_insts =
    String.concat "\n"
      (List.mapi
         (fun i depth ->
           let st = List.nth stages i in
           Printf.sprintf
             "  u_fifo%d : entity work.roccc_fifo\n\
              \    generic map (depth => %d, element_bits => %d)\n\
              \    port map (clk => clk, rst => rst,\n\
              \              wr_en => ch%d_wr, din => ch%d_din, full => ch%d_full,\n\
              \              rd_en => ch%d_rd, dout => ch%d_dout, empty => ch%d_empty);"
             i depth st.ns_element_bits i i i i i i)
         fifo_depths)
  in
  let stage_insts =
    String.concat "\n"
      (List.mapi
         (fun i (st : net_stage) ->
           let sys = st.ns_entity ^ "_system" in
           let src_port, src_valid =
             if i = 0 then "bram_data", "bram_valid"
             else
               Printf.sprintf "ch%d_dout" (i - 1),
               Printf.sprintf "(not ch%d_empty)" (i - 1)
           in
           let first_out = fst (List.hd st.ns_out_ports) in
           let outs =
             if i = n - 1 then
               String.concat ",\n"
                 (List.map
                    (fun (port, _) ->
                      Printf.sprintf "              %s => %s" port port)
                    st.ns_out_ports)
             else
               (* stream port order: results enter the channel in output
                  port order, matching the simulator's retire order *)
               Printf.sprintf "              %s => ch%d_din" first_out i
           in
           let finished =
             if i = n - 1 then "finished" else Printf.sprintf "st%d_done" i
           in
           let addr_wiring =
             if i = 0 then
               "              bram_addr => bram_addr, bram_rd => bram_rd,\n"
             else
               Printf.sprintf
                 "              bram_addr => open, bram_rd => ch%d_rd,\n" (i - 1)
           in
           Printf.sprintf
             "  u_stage%d : entity work.%s\n\
              \    port map (clk => clk, rst => rst,\n\
              \              bram_data => %s, bram_valid => %s,\n\
              %s%s,\n\
              \              finished => %s);"
             i sys src_port src_valid addr_wiring outs finished)
         stages)
  in
  let wr_wiring =
    String.concat "\n"
      (List.mapi
         (fun i _ ->
           Printf.sprintf
             "  ch%d_wr <= (not st%d_done) and (not ch%d_full);" i i i)
         fifo_depths)
  in
  Buffer.add_string buf
    (Printf.sprintf
       {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %s_net is
  port (
    clk   : in  std_logic;
    rst   : in  std_logic;
    bram_data  : in  signed(%d downto 0);
    bram_valid : in  std_logic;
    bram_addr  : out unsigned(9 downto 0);
    bram_rd    : out std_logic;
%s;
    finished : out std_logic
  );
end entity %s_net;

architecture structural of %s_net is
%s
begin
%s
%s
%s
end architecture structural;
|}
       name
       (first.ns_element_bits - 1)
       out_decls name name channel_signals wr_wiring fifo_insts stage_insts);
  Buffer.contents buf
