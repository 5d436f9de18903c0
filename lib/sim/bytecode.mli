(** Third interpreter tier: kernels flattened to dense int-coded
    bytecode over unboxed register planes with superinstruction fusion,
    executed by a tight dispatch loop.  Produces ordinary
    {!Compile.ckernel} values (the lowering plugs into
    {!Compile.compile_kernel} via [?run_lower]), so caching, argument
    vetting and block execution are shared with the closure tier.
    Trace and metrics output is byte-identical to both other tiers. *)

(** Lower one finalized kernel through the bytecode tier.  [None] when
    the kernel uses something no fast path supports (exactly the
    closure tier's coverage: unsupported statements fall back per
    statement to closures, and {!Compile.Not_compilable} still demotes
    the whole kernel to the reference walker). *)
val compile_kernel : Dpc_kir.Kernel.t -> Compile.ckernel option

(** The marshal-safe image of one lowered barrier-free run: the
    instruction stream plus every bound its operands can be checked
    against.  The static bytecode verifier ({!Dpc_check.Bcverify})
    consumes these. *)
type stream = {
  s_kname : string;
  s_code : int array;
  s_nstmts : int;  (** closure-fallback slots ([CALL] operand space) *)
  s_nic : int;  (** int constant-pool rows *)
  s_nfc : int;  (** float constant-pool rows *)
  s_ntmpi : int;  (** int temp-plane rows *)
  s_ntmpf : int;  (** float temp-plane rows *)
  s_nint : int;  (** warp int-plane rows (buffer handles included) *)
  s_nflt : int;  (** warp float-plane rows *)
  s_nbox : int;  (** warp boxed-plane rows *)
  s_nsites : int;  (** the kernel's [Malloc] sites *)
  s_nshared : int;  (** shared arrays in scope *)
  s_nnames : int;  (** interned shared-name ids *)
  s_calls : string array;
      (** the statement kind behind each [CALL] slot ([let], [let-boxed],
          [atomic], [malloc], [launch], [devsync], [free], [store], ...):
          the closure-fallback census *)
}

(** The register encoding's temp-plane split point: an operand [r >=
    temp_base] addresses temp-plane row [r - temp_base], [0 <= r <
    temp_base] a warp register row, [r < 0] constant-pool row
    [-r - 1]. *)
val temp_base : int

(** Lower each of [k]'s barrier-free runs exactly as {!compile_kernel}
    would and return their stream images (in program order) instead of
    an executable.  [None] when the kernel does not compile at all
    (missing/failed typing: it runs on the reference walker and has no
    bytecode to verify).  The kernel must be finalized. *)
val streams_of_kernel : Dpc_kir.Kernel.t -> stream list option

(** Enable/disable superinstruction fusion (default on, or the
    [DPC_BYTECODE_FUSE] environment variable).  A lowering-time switch
    for the bench ablation: flip it only with cache-free sessions, or
    cached programs keep the setting they were lowered under. *)
val set_fusion : bool -> unit

val fusion_enabled : unit -> bool
