(** Device model configuration.

    All architectural limits and cost-model constants of the simulated GPU
    live here, in one record, so that every experiment states its device
    assumptions explicitly.  The default instance, {!k20c}, is modeled on
    the NVIDIA Tesla K20c used in the paper (13 SMX Kepler GK110, CUDA 7.0):
    the architectural limits are the documented ones, and the dynamic
    parallelism overheads are set to the published magnitudes (device launch
    overhead in the tens of microseconds, 2048-entry fixed pending pool,
    expensive virtualized pool, parent swap on synchronization).

    Cycle costs are in device clock cycles (K20c core clock: 706 MHz). *)

type t = {
  name : string;
  clock_mhz : float;  (** core clock, used only to report times in ms *)
  num_smx : int;  (** streaming multiprocessors *)
  warp_size : int;
  max_warps_per_smx : int;  (** occupancy limit: resident warps *)
  max_blocks_per_smx : int;  (** occupancy limit: resident blocks *)
  max_threads_per_block : int;
  max_grid_blocks : int;  (** max blocks in one grid (x-dimension) *)
  issue_rate : int;  (** warp-instructions issued per cycle per SMX *)
  max_concurrent_grids : int;  (** HW limit on concurrently executing grids *)
  max_nesting_depth : int;  (** DP nesting levels *)
  fixed_pool_capacity : int;  (** pending-launch fixed pool entries *)
  (* --- dynamic-parallelism cost model (cycles unless noted) --- *)
  host_launch_latency : int;  (** host-side kernel launch latency *)
  device_launch_latency : int;  (** device-side launch -> child schedulable *)
  launch_issue_cycles : int;  (** cycles the launching warp spends on a
                                  device-side launch instruction (parameter
                                  parsing and buffering by the runtime) *)
  launch_dram_transactions : int;  (** traffic for parameter buffering *)
  dispatch_interval : int;  (** min cycles between grid dispatches; models
                                the hardware grid-management unit *)
  virtual_dispatch_interval : int;
      (** dispatch interval while the pending pool is virtualized: the
          software-managed pool is an order of magnitude slower, which is
          the performance cliff basic-dp codes fall off (Section III.B) *)
  virtual_pool_penalty : int;  (** extra latency when fixed pool overflows *)
  virtual_pool_dram : int;  (** extra traffic per virtualized pending kernel *)
  sync_swap_cycles : int;  (** parent block swap-out + swap-in on
                               [cudaDeviceSynchronize] *)
  sync_swap_dram : int;  (** swap traffic per suspended block *)
  block_start_cycles : int;
      (** fixed CTA scheduling/startup cost charged when a block begins
          executing on an SMX; penalizes configurations made of many tiny
          blocks (e.g. 1-1 mapping) *)
  (* --- instruction cost model --- *)
  mem_issue_cycles : int;  (** issue cost of a load/store *)
  dram_transaction_cycles : int;  (** amortized cost per 128B DRAM transaction *)
  l2_hit_cycles : int;  (** cost per 128B segment served by L2 *)
  atomic_cycles : int;  (** per-lane atomic operation cost *)
  mem_segment_bytes : int;  (** coalescing granularity *)
  l2_segments : int;  (** L2 capacity in segments (1.5 MB on K20c) *)
  (* --- deep memory-hierarchy model (Memmodel feature gates) ---
     Every feature defaults to "off" in {!k20c} with the exact semantics
     the flat model always had, so presets without these knobs produce
     byte-identical traces and metrics. *)
  shared_banks : int;
      (** shared-memory banks; [0] disables bank-conflict modeling *)
  bank_replay_cycles : int;
      (** replay cost per serialized bank-conflict access *)
  mshr_per_warp : int;
      (** outstanding DRAM transactions a warp may have in flight
          (miss-status holding registers); [0] disables the limit *)
  mshr_retire_per_access : int;
      (** outstanding transactions retired between a warp's consecutive
          memory instructions (the deterministic drain model) *)
  mshr_stall_cycles : int;
      (** stall cost per transaction issued past the MSHR budget *)
  issue_per_warp : int;
      (** instructions one warp may dual-issue per cycle ([1] or [2]);
          scales the per-block issue-rate cap in {!Timing} *)
}

let k20c =
  {
    name = "K20c (simulated)";
    clock_mhz = 706.0;
    num_smx = 13;
    warp_size = 32;
    max_warps_per_smx = 64;
    max_blocks_per_smx = 16;
    max_threads_per_block = 1024;
    max_grid_blocks = 65535;
    issue_rate = 4;
    max_concurrent_grids = 32;
    max_nesting_depth = 24;
    fixed_pool_capacity = 2048;
    host_launch_latency = 7_000;
    device_launch_latency = 5_000;
    launch_issue_cycles = 400;
    launch_dram_transactions = 8;
    dispatch_interval = 400;
    virtual_dispatch_interval = 2000;
    virtual_pool_penalty = 2_500;
    virtual_pool_dram = 16;
    sync_swap_cycles = 1_200;
    sync_swap_dram = 24;
    block_start_cycles = 200;
    mem_issue_cycles = 2;
    dram_transaction_cycles = 16;
    l2_hit_cycles = 4;
    atomic_cycles = 12;
    mem_segment_bytes = 128;
    l2_segments = 12_288;
    shared_banks = 0;
    bank_replay_cycles = 1;
    mshr_per_warp = 0;
    mshr_retire_per_access = 16;
    mshr_stall_cycles = 4;
    issue_per_warp = 1;
  }

(** A deliberately small device used by unit tests so that occupancy and
    concurrency effects show up at tiny problem sizes. *)
let test_device =
  {
    k20c with
    name = "test-device";
    num_smx = 2;
    max_warps_per_smx = 8;
    max_blocks_per_smx = 4;
    max_concurrent_grids = 4;
    fixed_pool_capacity = 16;
    l2_segments = 64;
  }

(** {!k20c} with the deep memory-hierarchy features switched on:
    32-bank shared memory with conflict replay, a 64-entry per-warp MSHR
    file bounding outstanding DRAM transactions, and dual-issue warp
    schedulers (Kepler issues up to two independent instructions per
    warp per cycle).  Same architectural limits as [k20c], so crossover
    shifts against it isolate the memory model. *)
let k20c_deep =
  {
    k20c with
    name = "K20c deep (simulated)";
    shared_banks = 32;
    bank_replay_cycles = 2;
    mshr_per_warp = 64;
    mshr_retire_per_access = 8;
    mshr_stall_cycles = 4;
    issue_per_warp = 2;
  }

(** A milo832-style small core (SNIPPETS.md section 3): one SMX-class
    core running 32 warps of fine-grained multithreading (1024 threads
    — enough resident warps that recursive DP parents suspended on a
    child sync cannot starve their children of warp slots), dual-issue,
    a 32-bank scratchpad with conflict replay and a small MSHR file:
    16 outstanding memory transactions per warp draining slowly (one
    retired per memory instruction), so scatter-heavy warps stall on a
    full miss queue.  The pending pool and L2 shrink with the core so
    dynamic-parallelism pressure shows up at unit-test problem sizes. *)
let milo832 =
  {
    k20c with
    name = "milo832 (simulated)";
    num_smx = 1;
    max_warps_per_smx = 32;
    max_blocks_per_smx = 8;
    issue_rate = 2;
    max_concurrent_grids = 8;
    fixed_pool_capacity = 256;
    l2_segments = 1_024;
    shared_banks = 32;
    bank_replay_cycles = 2;
    mshr_per_warp = 16;
    mshr_retire_per_access = 1;
    mshr_stall_cycles = 4;
    issue_per_warp = 2;
  }

(** The named-preset registry, in presentation order — the single list
    every preset-by-name surface (scenario codecs, CLI flags, README
    table) derives from. *)
let presets =
  [
    ("k20c", k20c);
    ("k20c-deep", k20c_deep);
    ("milo832", milo832);
    ("test-device", test_device);
  ]

let preset_names = List.map fst presets

(** Look up a preset by its registry name (case-insensitive). *)
let preset_opt name =
  List.assoc_opt (String.lowercase_ascii name) presets

(** Threads per warp rounded up. *)
let warps_per_block t ~block_dim = (block_dim + t.warp_size - 1) / t.warp_size

(** How many blocks of [block_dim] threads fit on one SMX (CUDA occupancy
    calculator, restricted to the thread and block limits we model). *)
let blocks_per_smx t ~block_dim =
  if block_dim <= 0 then invalid_arg "Config.blocks_per_smx: block_dim <= 0";
  let by_warps = t.max_warps_per_smx / warps_per_block t ~block_dim in
  Int.max 1 (Int.min t.max_blocks_per_smx by_warps)

(** Number of blocks needed to fill the whole device at full occupancy for
    a given block size; the paper's baseline configuration (B, T) before
    any KC_X downgrade. *)
let device_fill_blocks t ~block_dim = t.num_smx * blocks_per_smx t ~block_dim

let cycles_to_ms t cycles = Float.of_int cycles /. (t.clock_mhz *. 1000.0)
