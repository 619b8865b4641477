(** Function inlining: "Function calls will either be inlined or whenever
    feasible made into a lookup table" (paper §2). Callee locals are
    renamed apart; nested calls are handled by iterating to a fixpoint
    (recursion is rejected upstream by the semantic checks). *)

val inline_calls :
  Roccc_cfront.Ast.program -> Roccc_cfront.Ast.func -> Roccc_cfront.Ast.func
(** Inline every call to a program-defined function inside the given
    function's body. Calls to registered lookup tables and to the ROCCC
    intrinsics are left in place. *)
