(** Content-addressed cache keys for compilation stage outputs. *)

type t = private string
(** A hex digest; equal fingerprints mean "same stage output". *)

val make :
  source:string ->
  entry:string ->
  luts:Roccc_hir.Lut_conv.table list ->
  passes:(string * string) list ->
  t
(** A finished artifact's key: a digest of the inputs and, in order, the
    (name, option fingerprint) of every pass that runs — see
    {!Roccc_core.Pass.executed}. Option records or pass selections that
    run the same passes with the same fingerprints share one artifact. *)

val seed :
  source:string -> entry:string -> luts:Roccc_hir.Lut_conv.table list -> t
(** The chain origin for per-pass keys: everything that determines the
    initial pipeline state of a compilation. *)

val chain : t -> pass:string -> options_fp:string -> t
(** [chain prev ~pass ~options_fp] is the key of the pipeline state after
    running [pass] (with its per-pass option fingerprint) on the state
    keyed by [prev]. *)

val to_hex : t -> string
(** The key as a filesystem-safe hex string. *)
