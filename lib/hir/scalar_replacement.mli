(** Scalar replacement (paper §4.1, Figure 3): isolates memory accesses from
    calculation. Sliding-window array reads become scalar loads, array
    writes become scalar stores, and the pure computation in between is
    exported as the data-path function; the loop statement and access
    pattern feed the controller and smart-buffer generators.

    Accepted shapes: a purely combinational function (no loop, no arrays);
    a fully-unrolled block kernel (constant-index array accesses, e.g. the
    DCT); or constant scalar setup + one loop nest (1-D or 2-D, constant
    bounds, indices affine in the loop variables) + scalar exports. *)

val run : Roccc_cfront.Ast.program -> Roccc_cfront.Ast.func -> Kernel.t
(** Transform a checked, inlined, constant-folded function into a kernel.
    Raises {!Roccc_util.Diag.Error} with a user-facing message on shape
    violations (non-affine accesses, statements before/after the loop nest,
    etc.). *)
