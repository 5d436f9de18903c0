(** The lowered interpreter tier: kernels flattened to dense int-coded
    bytecode over unboxed register planes with superinstruction fusion,
    executed by a tight dispatch loop.  Every statement kind, the device
    runtime's launch, synchronize and free included, lowers to native
    stream ops; a kernel with a slot the type inference left boxed, or
    with a construct that has no native form (type-mixed operands,
    [any]-element atomics), does not lower at all and runs on the
    reference walker in {!Interp}.  Trace and metrics
    output is byte-identical to the walker's.

    A lowered kernel's programs own mutable scratch, and the kernel keeps
    a free list of warp register planes, so a {!ckernel} may be reused
    freely across launches, sessions and runs {e within one domain}, but
    must never execute concurrently in two domains.  The engine's
    cross-run cache therefore keeps one table per domain. *)

(** A kernel lowered to bytecode, with its register-plane layout and the
    inferred parameter types used to vet launch arguments. *)
type ckernel

(** Lower one finalized kernel.  [None] when the kernel has a construct
    with no native form, or no successful {!Dpc_kir.Typing} inference:
    every launch of it then takes the reference walker.  Requires
    {!Dpc_kir.Kernel.finalize} to have run. *)
val compile_kernel : Dpc_kir.Kernel.t -> ckernel option

(** Do this launch's runtime argument values agree with the static slot
    inference the kernel was lowered against?  Rejection sends this
    launch only to the reference walker. *)
val args_ok : ckernel -> Dpc_gpu.Memory.t -> Dpc_kir.Value.t list -> bool

(** The session-side runtime a block reaches back into, built once per
    interpreter session: [flush_deep] runs a pending launch immediately
    (deep drain at [cudaDeviceSynchronize]), [enqueue] defers it to the
    session's breadth-order queue, [add_alloc_cycles] accumulates
    allocator cycles on the session. *)
type host = {
  flush_deep : Runtime.pending_launch -> unit;
  enqueue : Runtime.pending_launch -> unit;
  add_alloc_cycles : int -> unit;
}

(** Execute one block of a lowered kernel and return its trace.  The
    labelled arguments mirror the reference walker's block context.
    The block's warp register planes come from a free list in the
    [ckernel] (reset to the fresh state) and go back to it when the
    block ends. *)
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
  host:host ->
  deep:bool ->
  Trace.block_trace

(** The marshal-safe image of one lowered program — a barrier-free
    statement run, or a block-uniform condition or loop bound: the
    instruction stream plus every bound its operands can be checked
    against.  The static bytecode verifier ({!Dpc_check.Bcverify})
    consumes these. *)
type stream = {
  s_kname : string;
  s_code : int array;
  s_nic : int;  (** int constant-pool rows *)
  s_nfc : int;  (** float constant-pool rows *)
  s_ntmpi : int;  (** int temp-plane rows *)
  s_ntmpf : int;  (** float temp-plane rows *)
  s_nint : int;  (** warp int-plane rows (buffer handles included) *)
  s_nflt : int;  (** warp float-plane rows *)
  s_nsites : int;  (** the kernel's [Malloc] sites *)
  s_nshared : int;  (** shared arrays in scope *)
  s_nnames : int;  (** interned names: shared arrays, launch callees *)
  s_result : (int * int) option;
      (** a uniform-condition program's value: kind (0 int / 1 float /
          2 buffer) and register; [None] for a statement run *)
}

(** The register encoding's temp-plane split point: an operand [r >=
    temp_base] addresses temp-plane row [r - temp_base], [0 <= r <
    temp_base] a warp register row, [r < 0] constant-pool row
    [-r - 1]. *)
val temp_base : int

(** Every program [k] lowers to, in program order, exactly as
    {!compile_kernel} lowers them.  [None] when the kernel does not
    lower (it runs on the reference walker and has no bytecode to
    verify).  The kernel must be finalized. *)
val streams_of_kernel : Dpc_kir.Kernel.t -> stream list option
