(** Deterministic integer id generators.

    Every IR in the compiler (virtual registers, CFG blocks, datapath nodes,
    VHDL signals) needs fresh ids. A generator is a value, not global state:
    each is function-local or owned by the IR it numbers, so independent
    compilations — and the cached pipeline states several compiles share —
    are reproducible. *)

type t = { mutable next : int; start : int }

let create ?(start = 0) () = { next = start; start }

let fresh t =
  let id = t.next in
  t.next <- t.next + 1;
  id

let peek t = t.next

let reset t = t.next <- t.start
