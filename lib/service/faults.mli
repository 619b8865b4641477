(** Deterministic fault injection for resilience testing.

    A plan maps named injection points to firing rates; each point's rate
    accumulator gains [rate] per {!trip} and fires ({!Injected}) each time
    it crosses 1 — every call at 1.0, every second call at 0.5, with no
    randomness, so a soak run injects exactly the same fault sequence
    every time. Install via [--inject-fault SPEC] or [ROCCC_FAULT=SPEC]
    where SPEC is ["point[:rate],..."], e.g.
    ["cache_read:0.5,driver_pass:0.1"]. *)

exception Injected of string
(** Raised at a firing fault point, carrying the point's name. *)

type t

val known_points : string list
(** The named injection points, in pipeline order: ["scheduler_claim"]
    (worker claims a request/job), ["driver_pass"] (every executed
    compiler pass), ["cache_read"] / ["cache_write"] (disk-cache I/O,
    where firing exercises the retry-then-degrade path). *)

val parse : string -> (t, string) result
(** Parse ["point[:rate],..."]; rates default to 1.0 and must lie in
    (0, 1]. Unknown points and duplicate entries are errors. *)

val install : t -> unit
(** Make the plan current for the whole process (all domains). *)

val clear : unit -> unit

val env_var : string
(** ["ROCCC_FAULT"]. *)

val from_env : unit -> (t option, string) result
(** Parse {!env_var} if set ([Ok None] when unset or empty). *)

val trip : string -> unit
(** Mark a fault point: raises {!Injected} when an installed plan says
    this call fires; a no-op otherwise. *)

val counts : unit -> (string * int * int) list
(** Per-point (name, calls, fired) of the installed plan ([[]] if none) —
    the basis for "every fault point exercised" assertions. *)

val describe : exn -> string option
(** User-facing message for {!Injected}. *)
