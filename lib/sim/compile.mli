(** One-time lowering of kernel IR into OCaml closures (the interpreter's
    fast path).

    The reference walker in {!Interp} re-traverses the AST for every
    warp x instruction; this module compiles each kernel body once into a
    tree of closures over a typed per-warp register plane (see the
    implementation header for the full design).  Semantics are the
    walker's, charge for charge: both back ends emit byte-identical
    {!Trace} data, including float accumulation order and error identity.

    A compiled kernel's closures own mutable per-node scratch, so a
    {!ckernel} may be reused freely across launches, sessions and runs
    {e within one domain}, but must never execute concurrently in two
    domains.  The engine's cross-run cache therefore keeps one
    compilation table per domain.

    The block/statement machinery below is exposed so that a second
    lowering ({!Bytecode}) can plug into {!compile_kernel} via
    [?run_lower]: it receives each maximal barrier-free statement run and
    may lower it however it likes, falling back per statement to
    {!compile_stmt} for anything it does not support.  Such a lowering
    executes inside the same {!cctx}/{!warp} state and must preserve the
    walker's charge-for-charge semantics. *)

(** Raised (compile time only) when a kernel uses something the fast
    path does not support; {!compile_kernel} then returns [None] and
    every launch of the kernel takes the reference walker. *)
exception Not_compilable

(** Where a frame slot lives: [Si]/[Sf] are rows of the unboxed int/float
    planes (buffer handles are [Si] ids), [Sb] rows of the boxed plane. *)
type storage = Si of int | Sf of int | Sb of int

type warp = {
  widx : int;
  base_lane : int;  (** threadIdx.x of lane 0 *)
  nlanes : int;  (** threads in this warp (last warp may be partial) *)
  ints : int array array;  (** indexed [row].[lane] *)
  flts : float array array;
  boxd : Dpc_kir.Value.t array array;
  mutable returned : int;  (** bitmask of lanes that executed [return] *)
}

val full_mask : warp -> int

val live_mask : warp -> int

(** Per-block execution context, mirroring Interp's bctx. *)
type cctx = {
  cfg : Dpc_gpu.Config.t;
  mem : Dpc_gpu.Memory.t;
  alloc : Dpc_alloc.Allocator.t;
  mm : Memmodel.t;  (** memory-hierarchy model: the single accounting path *)
  gid : int;
  grid_dim : int;
  block_dim : int;
  depth : int;
  block_idx : int;
  shared : Dpc_kir.Value.t array array;  (** by shared-decl index *)
  warps : warp array;
  seg : Trace.seg_builder;
  block_mallocs : Dpc_kir.Value.t option array;  (** by Malloc site *)
  grid_mallocs : Dpc_kir.Value.t option array;
  grid_alloc_count : int ref;
  pending : Runtime.pending_launch Dpc_util.Vec.t;
  deep : bool;
  flush_deep : Runtime.pending_launch -> unit;
      (** run one pending launch now, draining its subtree *)
  add_alloc_cycles : int -> unit;  (** session alloc_cycles accumulator *)
}

val charge : cctx -> int -> int -> unit
(** [charge c cycles active]: issue cycles against the block's segment. *)

val account : cctx -> warp -> int array -> int -> unit
(** [account c w addrs n]: one warp global-memory instruction through
    {!Memmodel.account_access} (coalescing, L2, MSHR). *)

val account_shared : cctx -> int array -> int -> unit
(** [account_shared c idxs n]: one warp shared-memory instruction
    through {!Memmodel.account_shared} (bank-conflict replays). *)

(** Compile-time environment of one kernel: slot types, slot storage
    rows, shared-array indices.  [run_lower], when set, replaces the
    closure lowering of every barrier-free statement run. *)
type env = {
  kname : string;
  slots : Dpc_kir.Typing.slot_ty array;
  storage : storage array;
  shindex : (string, int) Hashtbl.t;  (** shared name -> decl index *)
  shtys : Dpc_kir.Typing.sh_ty array;
  shnum : bool array;
      (** shared arrays that only ever hold numbers (every store into
          them is statically int or float): a boxed read of one coerces
          to int/float without a possible type error *)
  nsites : int;  (** [Malloc] sites of the kernel *)
  run_lower : (env -> Dpc_kir.Ast.stmt list -> cctx -> warp -> unit) option;
}

val storage_of : env -> Dpc_kir.Ast.var -> storage
(** Storage row of a resolved variable; raises {!Not_compilable} on an
    unresolved slot. *)

val malloc_value :
  cctx ->
  kname:string ->
  site:int ->
  Dpc_kir.Ast.alloc_scope ->
  mask:int ->
  int ->
  Dpc_kir.Value.t
(** [malloc_value c ~kname ~site scope ~mask n] performs one [Malloc] of
    [n] elements for a warp under [mask] and returns the buffer handle:
    per-warp scope always allocates, per-block/per-grid scope allocates
    once per site and charges a 2-cycle cache hit afterwards.  The one
    allocation path of both the closure and the bytecode tier. *)

val compile_stmt : env -> Dpc_kir.Ast.stmt -> cctx -> warp -> int -> unit
(** Lower one statement to a closure.  The closure re-filters its mask
    against [w.returned], so callers may pass an unfiltered region mask.
    Raises {!Not_compilable} (at compile time) for unsupported forms. *)

(** A kernel lowered to closures, with its register-plane layout and the
    inferred parameter storage/types used to vet launch arguments. *)
type ckernel

(** Lower one finalized kernel.  [None] when the kernel uses something
    the fast path does not support (every launch of it must then take
    the reference walker).  Requires {!Dpc_kir.Kernel.finalize} to have
    run (the cached {!Dpc_kir.Typing} inference is consumed here).
    [run_lower], when given, lowers each barrier-free statement run in
    place of the closure path (block-uniform segments keep closures). *)
val compile_kernel :
  ?run_lower:(env -> Dpc_kir.Ast.stmt list -> cctx -> warp -> unit) ->
  Dpc_kir.Kernel.t ->
  ckernel option

(** Do this launch's runtime argument values agree with the static slot
    inference the kernel was compiled against?  Rejection falls back to
    the reference walker for this launch only. *)
val args_ok : ckernel -> Dpc_gpu.Memory.t -> Dpc_kir.Value.t list -> bool

(** Execute one block of a compiled kernel and return its trace.  The
    labelled arguments mirror the reference walker's block context;
    [flush_deep] runs a pending launch immediately (deep drain at
    [cudaDeviceSynchronize]), [enqueue] defers it to the session's
    breadth-order queue, [add_alloc_cycles] accumulates allocator cycles
    on the session. *)
val exec_block :
  ckernel ->
  cfg:Dpc_gpu.Config.t ->
  mem:Dpc_gpu.Memory.t ->
  alloc:Dpc_alloc.Allocator.t ->
  mm:Memmodel.t ->
  gid:int ->
  grid_dim:int ->
  block_dim:int ->
  depth:int ->
  block_idx:int ->
  args:Dpc_kir.Value.t list ->
  grid_mallocs:Dpc_kir.Value.t option array ->
  grid_alloc_count:int ref ->
  flush_deep:(Runtime.pending_launch -> unit) ->
  enqueue:(Runtime.pending_launch -> unit) ->
  add_alloc_cycles:(int -> unit) ->
  deep:bool ->
  Trace.block_trace
