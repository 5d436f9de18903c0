(** Abstract syntax of the kernel IR.

    The IR models the CUDA subset needed by the paper's basic-DP template
    (Fig. 1): 1-D grids of 1-D blocks, global- and shared-memory accesses,
    atomics, intra-block synchronization, device-side kernel launches,
    device-side synchronization, device heap allocation, and the custom
    grid-wide barrier of Section IV.E.

    Variable occurrences carry a mutable [slot]; {!Kernel.finalize} resolves
    every occurrence to a dense frame index so the interpreter never hashes
    names.  Transformations that move subtrees between kernels must
    deep-copy them ({!copy_stmt}) so slot resolution cannot alias.

    The types are exposed concretely: the rewriter, the consolidation
    transforms, the simulator back ends and the static checker all pattern
    match on them.  Code outside [lib/kir] should build nodes through
    {!Build} or this module's smart constructors ({!var}, {!param}) so
    every [var] cell starts unresolved. *)

type ty = Tint | Tfloat | Tptr_int | Tptr_float

type var = { name : string; mutable slot : int }

(** A fresh, unresolved variable cell ([slot = -1]). *)
val var : string -> var

type special =
  | Thread_idx  (** threadIdx.x *)
  | Block_idx  (** blockIdx.x *)
  | Block_dim  (** blockDim.x *)
  | Grid_dim  (** gridDim.x *)
  | Lane_id  (** threadIdx.x mod warpSize *)
  | Warp_id  (** threadIdx.x / warpSize, within the block *)
  | Warp_size

type unop = Neg | Not | To_float | To_int

type binop =
  | Add | Sub | Mul | Div | Mod
  | Min | Max
  | And | Or
  | Eq | Ne | Lt | Le | Gt | Ge
  | Shl | Shr | Bit_and | Bit_or | Bit_xor

type atomic_op = Aadd | Amin | Amax | Aexch | Acas

type expr =
  | Const of Value.t
  | Var of var
  | Special of special
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Load of expr * expr  (** global load: buffer expression, index *)
  | Shared_load of string * expr
  | Buf_len of expr  (** element count of a buffer *)

(** Scope at which a device-heap allocation is performed (one buffer per
    warp / per block / per grid); the paper's consolidation buffers. *)
type alloc_scope = Per_warp | Per_block | Per_grid

type stmt =
  | Let of var * expr
  | Store of expr * expr * expr  (** buffer, index, value *)
  | Shared_store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of var * expr * expr * stmt list
      (** [For (v, lo, hi, body)]: v from lo while v < hi, step 1 *)
  | Syncthreads
  | Device_sync
      (** cudaDeviceSynchronize: the block waits for children it launched *)
  | Atomic of {
      op : atomic_op;
      buf : expr;
      idx : expr;
      operand : expr;
      compare : expr option;  (** for CAS *)
      old : var option;  (** binds the pre-update value *)
    }
  | Launch of launch
  | Malloc of {
      dst : var;
      count : expr;
      scope : alloc_scope;
      mutable site : int;  (** unique id, set by {!Kernel.finalize} *)
    }  (** device-heap allocation of an int buffer, serviced by the
           allocator selected for the run *)
  | Free of expr
      (** release a [Malloc]ed buffer back to the allocator (cost only;
          simulated buffers are reclaimed by the GC) *)
  | Grid_barrier
      (** custom global barrier (Section IV.E): every block arrives; all
          blocks except the last to arrive exit the kernel; the last block
          continues, and only after every block has arrived *)
  | Return  (** this thread exits the kernel *)

and launch = {
  callee : string;
  grid : expr;
  block : expr;
  args : expr list;
  pragma : Pragma.t option;  (** [#pragma dp] annotation, if any *)
}

type param = { pname : string; ptype : ty; pvar : var }

(** Parameter with a fresh variable cell; [ty] defaults to {!Tint}. *)
val param : ?ty:ty -> string -> param

(** {2 Deep copy}

    Fresh [var] cells so slots resolve independently. *)

val copy_expr : expr -> expr
val copy_stmt : stmt -> stmt
val copy_block : stmt list -> stmt list

(** {2 Traversals used by analyses} *)

(** Pre-order visit of an expression and all its subexpressions. *)
val iter_expr : (expr -> unit) -> expr -> unit

(** Pre-order visit of a statement tree: [on_stmt] on every statement,
    [on_expr] on every (sub)expression it contains. *)
val iter_stmt : on_stmt:(stmt -> unit) -> on_expr:(expr -> unit) -> stmt -> unit

val iter_block :
  on_stmt:(stmt -> unit) -> on_expr:(expr -> unit) -> stmt list -> unit

(** All variables defined or used in a block, in first-occurrence order:
    for each distinct name, the list of [var] cells bearing it. *)
val collect_vars : param list -> stmt list -> var list list

(** Does a block (transitively) contain [Syncthreads]?  Such subtrees must
    execute block-uniformly. *)
val has_syncthreads_block : stmt list -> bool

(** Must a statement be executed block-uniformly (all warps in lockstep at
    the statement level)?  True for [Syncthreads] and [Grid_barrier] and
    for control flow containing them; the interpreter checks that the
    conditions of such control flow are uniform across the block, which is
    the same legality rule CUDA imposes on [__syncthreads]. *)
val needs_block_uniform : stmt -> bool

(** All [Launch] nodes in a block, in syntactic order. *)
val collect_launches : stmt list -> launch list
