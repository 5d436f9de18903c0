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
    warp-execution-efficiency metric). *)

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

(* --- builders used by the interpreter --------------------------------- *)

type seg_builder = {
  mutable issue : int;
  mutable lane_cycles : int;  (* cycles x active lanes; [cut] divides by 32 *)
  mutable dram : int;
  mutable l2 : int;
  mutable bank_rp : int;
  mutable mshr_st : int;
  mutable allocs : int;
  mutable alloc_fb : int;
  mutable alloc_cyc : int;
  segs : segment Dpc_util.Vec.t;
}

let dummy_segment =
  { issue_cycles = 0; weighted_active = 0.0; dram_transactions = 0;
    l2_hits = 0; bank_replays = 0; mshr_stalls = 0; alloc_calls = 0;
    alloc_fallbacks = 0; alloc_cycles = 0; ends_with = Seg_done }

let seg_builder () =
  { issue = 0; lane_cycles = 0; dram = 0; l2 = 0; bank_rp = 0; mshr_st = 0;
    allocs = 0; alloc_fb = 0; alloc_cyc = 0;
    segs = Dpc_util.Vec.create ~dummy:dummy_segment }

(** Close the current segment with [ends_with] and start a fresh one. *)
let cut b ends_with =
  Dpc_util.Vec.push b.segs
    {
      issue_cycles = b.issue;
      weighted_active = Float.of_int b.lane_cycles /. 32.0;
      dram_transactions = b.dram;
      l2_hits = b.l2;
      bank_replays = b.bank_rp;
      mshr_stalls = b.mshr_st;
      alloc_calls = b.allocs;
      alloc_fallbacks = b.alloc_fb;
      alloc_cycles = b.alloc_cyc;
      ends_with;
    };
  b.issue <- 0;
  b.lane_cycles <- 0;
  b.dram <- 0;
  b.l2 <- 0;
  b.bank_rp <- 0;
  b.mshr_st <- 0;
  b.allocs <- 0;
  b.alloc_fb <- 0;
  b.alloc_cyc <- 0

let finish b ~block_idx ~warps =
  cut b Seg_done;
  { block_idx; warps; segments = Dpc_util.Vec.to_array b.segs }

(* --- aggregate statistics over traces ---------------------------------- *)

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

let accumulate_grid ~issue ~weighted ~dram ~l2 ~bank_rp ~mshr_st ~launches
    ~syncs (g : grid_exec) =
  Array.iter
    (fun bt ->
      Array.iter
        (fun s ->
          issue := !issue + s.issue_cycles;
          weighted := !weighted +. s.weighted_active;
          dram := !dram + s.dram_transactions;
          l2 := !l2 + s.l2_hits;
          bank_rp := !bank_rp + s.bank_replays;
          mshr_st := !mshr_st + s.mshr_stalls;
          match s.ends_with with
          | Seg_launch ids -> launches := !launches + Array.length ids
          | Seg_sync -> incr syncs
          | Seg_done | Seg_barrier -> ())
        bt.segments)
    g.blocks

let totals_of_grids (grids : grid_exec array) =
  let issue = ref 0 and weighted = ref 0.0 in
  let dram = ref 0 and l2 = ref 0 in
  let bank_rp = ref 0 and mshr_st = ref 0 in
  let launches = ref 0 and syncs = ref 0 in
  Array.iter
    (accumulate_grid ~issue ~weighted ~dram ~l2 ~bank_rp ~mshr_st ~launches
       ~syncs)
    grids;
  {
    total_issue = !issue;
    total_weighted = !weighted;
    total_dram = !dram;
    total_l2_hits = !l2;
    total_bank_replays = !bank_rp;
    total_mshr_stalls = !mshr_st;
    device_launches = !launches;
    device_syncs = !syncs;
  }

(** Functional totals of a single grid (the per-kernel profile's raw
    material). *)
let totals_of_grid (g : grid_exec) = totals_of_grids [| g |]

(** Warp execution efficiency: cycle-weighted average active lanes per warp
    over maximum lanes per warp (CUDA Profiler User's Guide definition). *)
let warp_efficiency totals =
  if totals.total_issue = 0 then 1.0
  else totals.total_weighted /. Float.of_int totals.total_issue
