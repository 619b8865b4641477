(** Constant folding, algebraic simplification, constant propagation and
    dead-code elimination — ROCCC's "conventional optimizations" (§2). *)

val fold_expr : Roccc_cfront.Ast.expr -> Roccc_cfront.Ast.expr
(** Bottom-up folding and algebraic simplification (identities,
    reassociation of constant add/sub chains). Division by zero is never
    folded away. *)

val optimize_func :
  ?consts:(string * int64) list ->
  Roccc_cfront.Ast.func ->
  Roccc_cfront.Ast.func
(** Propagation + folding + DCE to a fixpoint. *)

val readonly_global_consts :
  Roccc_cfront.Ast.program ->
  Roccc_cfront.Ast.func ->
  (string * int64) list
(** Constant-initialized globals the function never writes — safe to
    substitute as constants (a read-only coefficient table scalar, say). *)
