(** The profiling tool set (paper Figure 1 "Code Profiling", §2 / reference
    [10]): interprets an application with instrumented loops and ranks them
    by dynamic operation count, identifying the frequently executing kernels
    — the hardware candidates — before compilation. *)

(** One profiled loop site. *)
type site = {
  site_id : int;
  in_function : string;
  loop_path : string;  (** e.g. "app/i@0" (id disambiguates same names) *)
  static_ops : int;  (** arithmetic/logic ops per iteration (address
                         arithmetic excluded — it belongs to the address
                         generators) *)
  memory_accesses : int;  (** array reads + writes per iteration *)
  branch_statements : int;
  mutable iterations : int64;  (** measured dynamic trip count *)
}

type profile = {
  sites : site list;  (** sorted by dynamic operations, descending *)
  total_dynamic_ops : int64;
}

val fraction : profile -> site -> float

val computational_density : site -> float
(** Operations per memory access — §4's "high computational density, low
    control density" characterization. *)

val analyze :
  ?luts:(string * Roccc_cfront.Semant.lut_signature) list ->
  ?lut_funcs:(string * (int64 -> int64)) list ->
  ?scalars:(string * int64) list ->
  ?arrays:(string * int64 array) list ->
  entry:string ->
  string ->
  profile
(** Parse, check, instrument and interpret [entry] on the given inputs. *)

val kernel_candidates : ?threshold:float -> profile -> site list
(** Loops covering at least [threshold] (default 0.1) of dynamic ops. *)

val report : profile -> string
