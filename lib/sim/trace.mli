(** Execution traces.

    The simulator is split in two phases (DESIGN.md, decision 1): the
    functional SIMT interpreter executes kernels depth-first and records,
    per block, a sequence of {e segments} — stretches of execution
    delimited by device-side launches, device synchronization and the
    grid-wide barrier.  The discrete-event timing model then replays the
    segments against the device's resources.

    Segment costs are in warp issue cycles: the total number of cycles the
    block's warps spent issuing, with [weighted_active] recording how many
    of those cycle-slots had each lane active (the basis of the profiler's
    warp-execution-efficiency metric).

    All record types are concrete: the timing model, profiler and tests
    pattern-match and byte-compare traces directly. *)

type seg_end =
  | Seg_done  (** block finished *)
  | Seg_launch of int array  (** device-side launches: child grid ids *)
  | Seg_sync  (** cudaDeviceSynchronize: wait for this block's children *)
  | Seg_barrier  (** arrival at the custom grid-wide barrier *)

type segment = {
  issue_cycles : int;
  weighted_active : float;  (** sum over issue cycles of active_lanes/32 *)
  dram_transactions : int;
  l2_hits : int;
  bank_replays : int;  (** shared-memory bank-conflict replay accesses *)
  mshr_stalls : int;  (** DRAM transactions issued past the MSHR budget *)
  alloc_calls : int;  (** device-heap allocations issued in this segment *)
  alloc_fallbacks : int;  (** of which pool-exhaustion fallbacks *)
  alloc_cycles : int;  (** allocator cycles charged to this segment *)
  ends_with : seg_end;
}

type block_trace = {
  block_idx : int;
  warps : int;  (** resident warps this block occupies *)
  segments : segment array;
}

type grid_exec = {
  gid : int;
  kernel : string;
  grid_dim : int;
  block_dim : int;
  depth : int;  (** 0 for host-launched grids *)
  parent : (int * int) option;  (** launching (grid id, block idx) *)
  mutable blocks : block_trace array;
}

(** {2 Builders used by the interpreter}

    A [seg_builder] accumulates the current segment's counters; every
    interpreter back end mutates its fields directly (via
    {!Runtime.charge} and {!Memmodel.account_access}), so they are
    exposed. *)

type seg_builder = {
  mutable issue : int;
  mutable lane_cycles : int;
      (** sum over charges of cycles x active lanes; {!cut} divides by 32
          once (every term of [weighted_active] is a multiple of 1/32, so
          this is exact) *)
  mutable dram : int;
  mutable l2 : int;
  mutable bank_rp : int;
  mutable mshr_st : int;
  mutable allocs : int;
  mutable alloc_fb : int;
  mutable alloc_cyc : int;
  segs : segment Dpc_util.Vec.t;
}

(** The all-zero [Seg_done] segment ({!Dpc_util.Vec} dummy element). *)
val dummy_segment : segment

val seg_builder : unit -> seg_builder

(** Close the current segment with the given terminator and start a fresh
    one. *)
val cut : seg_builder -> seg_end -> unit

(** [cut] with [Seg_done], then package the block's trace. *)
val finish : seg_builder -> block_idx:int -> warps:int -> block_trace

(** {2 Aggregate statistics over traces} *)

type totals = {
  total_issue : int;
  total_weighted : float;
  total_dram : int;
  total_l2_hits : int;
  total_bank_replays : int;
  total_mshr_stalls : int;
  device_launches : int;
  device_syncs : int;
}

val totals_of_grids : grid_exec array -> totals

(** Functional totals of a single grid (the per-kernel profile's raw
    material). *)
val totals_of_grid : grid_exec -> totals

(** Warp execution efficiency: cycle-weighted average active lanes per warp
    over maximum lanes per warp (CUDA Profiler User's Guide definition);
    [1.0] when nothing issued. *)
val warp_efficiency : totals -> float
