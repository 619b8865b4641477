(** Block-RAM model (paper Figure 2): single read port and single write
    port, one-cycle read latency, with access counting. An off-chip engine
    is assumed to have staged the input data into the BRAM before the
    circuit starts, and to drain the output BRAM afterwards. *)

module Words = Roccc_util.Words
module Diag = Roccc_util.Diag

type t = {
  name : string;
  data : Words.t;
  element_bits : int;
  element_signed : bool;
  shift : int;  (** {!Words.shift} of [element_bits] *)
  mutable reads : int;
  mutable writes : int;
  (* the read register: data captured this cycle, visible next cycle *)
  mutable pending_address : int;
  mutable pending_count : int;  (** 0 = no request *)
  mutable read_out : Words.t;  (** data visible on the read port *)
  mutable read_count : int;  (** words of [read_out] that are valid *)
}

let create ~name ~element_bits ?(element_signed = true) ~size () : t =
  { name;
    data = Words.create size;
    element_bits;
    element_signed;
    shift = Words.shift element_bits;
    reads = 0;
    writes = 0;
    pending_address = 0;
    pending_count = 0;
    read_out = Words.create 1;
    read_count = 0 }

let size (m : t) = Bigarray.Array1.dim m.data

let load (m : t) (values : int64 array) : unit =
  if Array.length values > size m then
    Diag.failf "bram"
      "bram %s: %d values exceed capacity %d" m.name (Array.length values)
      (size m);
  Words.blit_wrapped ~signed:m.element_signed ~shift:m.shift
    (Words.of_array values) 0 m.data 0 (Array.length values)

let contents (m : t) : int64 array = Words.to_array m.data

(** Present a read request this cycle; data appears after [clock]. *)
let request_read (m : t) ~(address : int) ~(count : int) : unit =
  if address < 0 || address + count > size m then
    Diag.failf "bram"
      "bram %s: read [%d, %d) out of range" m.name address (address + count);
  if count > Bigarray.Array1.dim m.read_out then
    m.read_out <- Words.create count;
  m.pending_address <- address;
  m.pending_count <- count

(** Synchronous write of word [i] of [src], effective immediately after
    the clock edge. *)
let write (m : t) ~(address : int) (src : Words.t) (i : int) : unit =
  if address < 0 || address >= size m then
    Diag.failf "bram" "bram %s: write %d out of range" m.name address;
  Words.blit_wrapped ~signed:m.element_signed ~shift:m.shift src i m.data
    address 1;
  m.writes <- m.writes + 1

(** Clock edge: the pending read is captured into the read port register. *)
let clock (m : t) : unit =
  let count = m.pending_count in
  for k = 0 to count - 1 do
    m.read_out.{k} <- m.data.{m.pending_address + k}
  done;
  m.reads <- m.reads + count;
  m.read_count <- count;
  m.pending_count <- 0
