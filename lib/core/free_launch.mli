(** A simplified "Free Launch" transformation (Chen & Shen, MICRO 2015) —
    child-kernel removal by parent-thread reuse — implemented as a
    comparison baseline.

    The launching thread executes the child's logical threads in a
    sequential loop instead of launching a grid.  This removes every
    launch but re-introduces the work imbalance consolidation avoids.  As
    the paper notes of the original, it does not apply to recursive
    computations; {!apply} rejects them. *)

exception Unsupported of string

type result = {
  program : Dpc_kir.Kernel.Program.t;
  entry : string;
}

(** @raise Unsupported for recursive kernels, multi-block or
    dynamically-sized children, or children that use [__syncthreads]. *)
val apply : parent:string -> Dpc_kir.Kernel.Program.t -> result
