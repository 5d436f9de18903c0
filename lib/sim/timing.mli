(** Discrete-event timing model.

    Replays the traces recorded by {!Interp} against the device's
    resources: SMX occupancy limits, per-SMX issue bandwidth, the
    32-concurrent-grid limit, the device-side launch pipeline with its
    fixed/virtualized pending pools, CTA startup cost, and parent-block
    swap on [cudaDeviceSynchronize].  Host launches replay sequentially
    (the drivers synchronize between kernels). *)

(** SMX scheduling discipline (DESIGN.md ablation A2):
    [Processor_sharing] (default) shares each SMX's issue bandwidth among
    resident blocks in proportion to their warp counts; [Fcfs] runs every
    block at its solo rate (no contention). *)
type scheduler = Processor_sharing | Fcfs

type result = {
  total_cycles : float;
  occupancy : float;
      (** achieved SMX occupancy: time-averaged resident warps per busy
          SMX over the warp capacity (the profiler's definition) *)
  extra_dram : int;  (** swap + virtualized-pool traffic *)
  virtualized_launches : int;
  max_pending : int;
  swapped_syncs : int;
}

(** The replay's event queue: a binary min-heap over (time, seq) keys in
    parallel unboxed arrays.  Each entry has an integer id below the
    [ids] given at creation; an id is queued at most once, so its key
    can be changed or the entry cancelled in place.  Entries pop in
    (time, seq) order; with unique seqs that order is total. *)
module Event_queue : sig
  type t

  val create : ids:int -> t
  val length : t -> int
  val is_empty : t -> bool
  val mem : t -> int -> bool

  (** [set q id time seq] queues [id] with key (time, seq), or rekeys it
      in place if it is already queued. *)
  val set : t -> int -> float -> int -> unit

  (** Remove [id] if queued. *)
  val cancel : t -> int -> unit

  (** The minimum entry's key and id; the queue must be non-empty. *)
  val min_time : t -> float

  val min_seq : t -> int
  val min_id : t -> int

  (** Remove the minimum entry; the queue must be non-empty. *)
  val pop : t -> unit

  (** Keys changed in place, entries cancelled, and the largest length
      reached, since creation. *)
  val rekeys : t -> int

  val cancels : t -> int
  val peak : t -> int
end

type t

exception Stuck of string

(** [sink] receives one {!Dpc_prof.Event.t} per interesting state
    transition (grid lifecycle, SMX residency, sync swaps, pending-pool
    pressure, allocator replay), stamped with the simulated cycle.  The
    sink is per-model state: concurrent replays on separate domains with
    their own sinks record independent, deterministic streams. *)
val create :
  ?scheduler:scheduler ->
  ?sink:Dpc_prof.Event.sink ->
  Dpc_gpu.Config.t ->
  Trace.grid_exec array ->
  int list ->
  t

(** Run the replay to completion.
    @raise Stuck if any grid cannot complete (a model invariant
    violation). *)
val run : t -> result

(** [simulate cfg grids roots] = [run (create cfg grids roots)]. *)
val simulate :
  ?scheduler:scheduler ->
  ?sink:Dpc_prof.Event.sink ->
  Dpc_gpu.Config.t ->
  Trace.grid_exec array ->
  int list ->
  result
