(** User-facing simulated device.

    Typical use:
    {[
      let dev = Device.create ~alloc_kind:Pool program in
      let dist = Device.alloc_int dev ~name:"dist" n in
      Device.launch dev "sssp" ~grid:40 ~block:256 [ Vbuf dist.id; ... ];
      let report = Device.report dev in
    ]}

    Host launches are synchronous (the drivers synchronize between
    iterations); the timing model replays them back to back with the host
    launch latency in between. *)

module Cfg = Dpc_gpu.Config
module Mem = Dpc_gpu.Memory
module V = Dpc_kir.Value
module Alloc = Dpc_alloc.Allocator

type t = {
  session : Interp.session;
  scheduler : Timing.scheduler;
  mutable cached_report : Metrics.report option;
}

let create ?(cfg = Cfg.k20c) ?(alloc_kind = Alloc.Pool)
    ?(scheduler = Timing.Processor_sharing) ?mode ?ckernels prog =
  let alloc = Alloc.create alloc_kind in
  {
    session = Interp.create_session ?mode ?ckernels ~cfg ~alloc prog;
    scheduler;
    cached_report = None;
  }

let config t = t.session.Interp.cfg

let session t = t.session

let memory t = t.session.Interp.mem

let allocator t = t.session.Interp.alloc

(* --- host-side memory management ---------------------------------------- *)

let alloc_int t ~name n = Mem.alloc_int t.session.Interp.mem ~name n

let alloc_float t ~name n = Mem.alloc_float t.session.Interp.mem ~name n

let of_int_array t ~name a = Mem.of_int_array t.session.Interp.mem ~name a

let of_float_array t ~name a = Mem.of_float_array t.session.Interp.mem ~name a

let buf t id = Mem.get_buf t.session.Interp.mem id

(* --- kernel launch -------------------------------------------------------- *)

(** Synchronous host-side kernel launch. *)
let launch t kernel ~grid ~block args =
  t.cached_report <- None;
  ignore (Interp.host_launch t.session ~kernel ~grid ~block args)

(* --- metrics -------------------------------------------------------------- *)

(* The run report from the functional counters and one timing replay
   over everything launched so far. *)
let report_of_timing t (timing : Timing.result) =
  let s = t.session in
  let grids = Interp.grids s in
  let roots = Interp.roots s in
  let totals = Trace.totals_of_grids grids in
  let alloc = s.Interp.alloc in
  {
    Metrics.cycles = timing.Timing.total_cycles;
    time_ms =
      Cfg.cycles_to_ms s.Interp.cfg
        (Float.to_int timing.Timing.total_cycles);
    host_launches = List.length roots;
    device_launches = totals.Trace.device_launches;
    warp_efficiency = Trace.warp_efficiency totals;
    occupancy = timing.Timing.occupancy;
    dram_transactions = totals.Trace.total_dram + timing.Timing.extra_dram;
    l2_hits = totals.Trace.total_l2_hits;
    bank_conflict_replays = totals.Trace.total_bank_replays;
    mshr_stalls = totals.Trace.total_mshr_stalls;
    alloc_calls = Alloc.allocs alloc;
    alloc_cycles = s.Interp.alloc_cycles;
    pool_fallbacks = Alloc.pool_fallbacks alloc;
    virtualized_launches = timing.Timing.virtualized_launches;
    max_pending = timing.Timing.max_pending;
    swapped_syncs = timing.Timing.swapped_syncs;
    max_depth = s.Interp.max_depth;
    total_grids = Array.length grids;
  }

(* One timing replay over everything launched so far (with [sink]
   attached, if any); its report becomes the cached report. *)
let replay ?sink t =
  let s = t.session in
  let r =
    report_of_timing t
      (Timing.simulate ~scheduler:t.scheduler ?sink s.Interp.cfg
         (Interp.grids s) (Interp.roots s))
  in
  t.cached_report <- Some r;
  r

(** Full run report (functional metrics + timing replay).  Cached until the
    next launch. *)
let report t =
  match t.cached_report with Some r -> r | None -> replay t

(* --- profiling ------------------------------------------------------------ *)

(** Replay the timing model with a fresh per-call recorder attached and
    return the event stream.  The sink does not change the replay, so its
    report is cached for {!report}: a profiled run replays once. *)
let profile t =
  let recorder = Dpc_prof.Event.recorder () in
  ignore (replay ~sink:(Dpc_prof.Event.sink recorder) t : Metrics.report);
  Dpc_prof.Event.events recorder

(* --- convenient buffer readback ------------------------------------------ *)

let read_int_array t id = Mem.int_contents (buf t id)

let read_float_array t id = Mem.float_contents (buf t id)
