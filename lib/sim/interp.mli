(** Functional SIMT interpreter.

    Executes kernel IR the way a SIMT machine does at warp granularity:
    each warp evaluates instructions as 32-wide vectors under an
    active-lane mask, divergent branches serialize both paths, and
    global-memory instructions are coalesced into 128-byte segments
    filtered through an L2 model.  It produces real results (verified by
    the apps against CPU references) and records the per-block
    {!Trace.segment}s consumed by the timing model.

    Device-side launches are recorded and executed when the launching
    block reaches [cudaDeviceSynchronize] (deep, run-to-completion drain)
    or finishes (global breadth-order queue) — a valid CUDA execution
    order that keeps data-dependent launch chains near their
    breadth-first depth, as concurrent hardware does. *)

exception Sim_error of string

type pending_launch = Runtime.pending_launch

(** Interpreter back end.  [Bytecode] dispatches through the
    {!Bytecode} lowering (dense int-coded programs with superinstruction
    fusion) whenever a kernel lowers and the launch arguments match the
    inferred slot types, falling back to the reference AST walker
    otherwise; [Reference] forces the walker for every launch.  Both
    back ends emit byte-identical {!Trace} data. *)
type mode = Bytecode | Reference

(** Set the back end used by sessions created without an explicit [?mode].
    The initial default is [Bytecode], or as overridden by the
    environment variable [DPC_INTERP] (any {!mode_of_string} spelling,
    e.g. [ref]; an unrecognised value keeps the default and prints one
    line on stderr naming the valid values). *)
val set_default_mode : mode -> unit

val default_mode : unit -> mode

(** Canonical tier tag ([bytecode] / [ref]) — the string used by
    scenario codecs, CLI flags and tier-aware cache keys. *)
val mode_to_string : mode -> string

(** Inverse of {!mode_to_string}, accepting the [bc] / [reference] /
    [walker] aliases; [None] on anything else. *)
val mode_of_string : string -> mode option

type session = {
  cfg : Dpc_gpu.Config.t;
  mem : Dpc_gpu.Memory.t;
  alloc : Dpc_alloc.Allocator.t;
  prog : Dpc_kir.Kernel.Program.t;
  grids : Trace.grid_exec Dpc_util.Vec.t;
  mutable roots : int list;
  mm : Memmodel.t;  (** memory-hierarchy model: the single accounting path *)
  mutable alloc_cycles : int;
  mutable max_depth : int;
  mutable grid_budget : int;
  fifo : pending_launch Queue.t;
  mode : mode;
  ckernels : (string, Bytecode.ckernel option) Hashtbl.t;
  host : Bytecode.host;
      (** the session's launch queue and allocator-cycle counter as
          lowered blocks reach them; built once per session *)
}

(** [create_session ~cfg ~alloc prog] finalizes [prog] and prepares an
    execution session.  [grid_budget] bounds the total number of grids a
    session may execute (a runaway-recursion guard; exceeded raises
    {!Sim_error}).  [ckernels] supplies the lowering-cache table to use
    instead of a fresh empty one: the engine's cross-run kernel cache
    hands the same table (and the same finalized program) to successive
    sessions in one domain so each kernel lowers at most once per
    domain.  Lowered programs own mutable scratch, so a given table must
    never be shared by sessions running concurrently in different
    domains. *)
val create_session :
  ?grid_budget:int ->
  ?mode:mode ->
  ?ckernels:(string, Bytecode.ckernel option) Hashtbl.t ->
  cfg:Dpc_gpu.Config.t ->
  alloc:Dpc_alloc.Allocator.t ->
  Dpc_kir.Kernel.Program.t ->
  session

(** Synchronous host-side launch: executes the grid and every device-side
    launch it transitively produces, records the traces, and returns the
    root grid id.
    @raise Sim_error on invalid configurations, nesting-depth overflow,
    type errors, or barrier misuse;
    @raise Dpc_gpu.Memory.Out_of_bounds on wild accesses. *)
val host_launch :
  session ->
  kernel:string ->
  grid:int ->
  block:int ->
  Dpc_kir.Value.t list ->
  int

(** All executed grids, indexed by grid id. *)
val grids : session -> Trace.grid_exec array

(** Host-launched roots, in launch order. *)
val roots : session -> int list
