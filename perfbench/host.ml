(* Host speed probe.

   The benchmark shares its machine with other tenants, whose load can
   slow every process on it by a factor of two for minutes at a time.
   To keep such episodes out of the timings, the window is cut into short
   slots with a probe before each: two fixed pieces of this file's own
   work that never call the program under test. Timings are scaled by
   [reference_ms] over the probe time measured around them, i.e. reported
   at the speed of a quiet reference host. A change to the program moves
   its op times but not the probe, so the scaling never hides it.

   run.py pins the benchmark, and the server serve-mixed starts, to one
   CPU, so the probe always measures the CPU the work runs on. Other
   tenants slow the two vCPUs of the host unevenly; unpinned, the scaled
   throughput of serve-mixed, whose client and server ran on both, still
   varied by 15-21% across ten seeds. *)

(* Probe time on the reference host (2-vCPU Intel Xeon VM, OCaml 5.1.1)
   with nothing else running. *)
let reference_ms = 0.193

let scan = Array.make (1 lsl 19) 1
let keys = Array.init 768 (fun i -> (i * 40503) land 0xFFFF)
let work = Array.make 768 0

(* Array work: insertion-sorting a small array, which exercises the core,
   and streaming through a 4 MiB array, which exercises the memory
   system. Allocation-free. *)
let array_task () : int =
  let acc = ref 0 in
  for _ = 1 to 4 do
    Array.blit keys 0 work 0 (Array.length keys);
    for i = 1 to Array.length work - 1 do
      let v = work.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && work.(!j) > v do
        work.(!j + 1) <- work.(!j);
        decr j
      done;
      work.(!j + 1) <- v
    done;
    acc := !acc + work.(384)
  done;
  for i = 0 to Array.length scan - 1 do
    acc := !acc + Array.unsafe_get scan i
  done;
  !acc

module Int_map = Map.Make (Int)

(* Symbolic work like a compiler's: building a balanced tree, folding it
   into a list and sorting that. Seven runs allocate about 160 KB, a
   small part of the 2 MiB minor heap, which [probe_ms] empties first: so
   the probe neither collects nor promotes, and leaves the program's heap
   as it found it. (A 4000-entry tree tracked the host as well, but its
   promoted garbage grew zoo-cold's peak_rss_mb by 5 MiB.) *)
let alloc_task () : int =
  let m = ref Int_map.empty in
  for i = 0 to 299 do
    m := Int_map.add ((i * 40503) land 0xFFFF) i !m
  done;
  let l = Int_map.fold (fun k v a -> (k lxor v) :: a) !m [] in
  List.fold_left ( + ) 0 (List.sort compare l)

(* Mean time of seven runs of [f], in milliseconds. The mean, not the
   median: under time-sliced contention some runs get the whole core and
   some wait, and the ops around the probe see the average. *)
let mean_ms (f : unit -> int) : float =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 7 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e3 /. 7.0

(* The geometric mean of both tasks' times. Over four minutes in which
   other tenants varied the speed of compiles and co-simulations by 40%,
   compile, co-simulation and search times scaled by it varied by 3%
   from one 20-op stretch to the next; scaled by the array task alone,
   by 8-11%, because that task slows more than the program does. *)
let probe_ms () : float =
  let array_ms = mean_ms array_task in
  Gc.minor ();
  Float.sqrt (array_ms *. mean_ms alloc_task)

(* How much slower than the reference host the probes around [t] ran:
   the mean of the probes within a second of [t], or the nearest one.
   The mean for the same reason as in [mean_ms]; across ten seeds of
   every workload it gave a smaller spread of op_ms_p50 and op_ms_p90
   than the median of the same probes (largest 6.5% against 12%). *)
let slowdown (probes : (float * float) list) (t : float) : float =
  let near = List.filter (fun (pt, _) -> Float.abs (pt -. t) <= 1.0) probes in
  let near =
    if near <> [] then near
    else
      match
        List.sort (fun (a, _) (b, _) -> Float.compare (Float.abs (a -. t)) (Float.abs (b -. t))) probes
      with
      | p :: _ -> [ p ]
      | [] -> invalid_arg "Host.slowdown: no probes"
  in
  Stats.mean (List.map snd near) /. reference_ms
