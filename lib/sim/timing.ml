(** Discrete-event timing model.

    Replays the traces recorded by {!Interp} against the device's
    resources: SMX occupancy limits, a processor-sharing issue model per
    SMX, the 32-concurrent-grid limit, the device-side launch pipeline
    with its fixed/virtualized pending pools, and parent-block swap on
    [cudaDeviceSynchronize].

    Two SMX scheduling disciplines are provided (DESIGN.md, ablation 2):
    - [Processor_sharing] (default): resident blocks share each SMX's
      issue bandwidth proportionally to their warp counts;
    - [Fcfs]: a block always progresses at its own maximum rate, i.e. no
      issue contention is modeled.

    Host launches replay sequentially: the host synchronizes between
    kernel invocations, as the benchmark drivers do. *)

module Cfg = Dpc_gpu.Config
module Heap = Dpc_util.Heap
module Ev = Dpc_prof.Event

type scheduler = Processor_sharing | Fcfs

type result = {
  total_cycles : float;
  occupancy : float;  (** achieved SMX occupancy, time-averaged *)
  extra_dram : int;  (** swap + virtualized-pool traffic *)
  virtualized_launches : int;
  max_pending : int;
  swapped_syncs : int;  (** device syncs that actually suspended a block *)
}

(* --- runtime state ------------------------------------------------------ *)

type block_run = {
  grid_id : int;
  bidx : int;
  warps : int;
  segments : Trace.segment array;
  mutable seg_i : int;
  mutable remaining : float;  (** work left in the current segment *)
  mutable extra_next : float;  (** swap cost charged to the next segment *)
  mutable rate : float;
  mutable last_update : float;
  mutable smx : int;  (** -1 when not resident *)
  mutable epoch : int;  (** invalidates stale completion events *)
  mutable children_out : int;
  mutable waiting_sync : bool;
  mutable waiting_barrier : bool;
  mutable finished : bool;
}

type grid_state = {
  trace : Trace.grid_exec;
  blocks : block_run array;
  mutable blocks_done : int;
  mutable children_out : int;
  mutable barrier_arrived : int;
  mutable dispatched : bool;
  mutable drained : bool;  (** all blocks done; no longer counts as active *)
  mutable completed : bool;
  mutable suspended : int;  (** blocks swapped out at a device sync *)
  mutable started : bool;  (** a block of this grid has reached an SMX *)
  mutable yielded : bool;
      (** every unfinished block is swapped out: the grid releases its
          concurrency slot (the runtime swaps parents to let children run,
          Section II.A) *)
}

type event =
  | Grid_ready of int
  | Dispatch_tick
  | Seg_done of block_run * int  (** block, epoch *)

type smx_state = {
  mutable resident : block_run list;
  mutable warps_used : int;
  mutable nblocks : int;
}

type t = {
  cfg : Cfg.t;
  scheduler : scheduler;
  record_timeline : bool;
  sink : Ev.sink option;  (** per-run profiling sink; no global state *)
  trace_log : bool;  (** [DPC_TIMING_TRACE] set: log grid lifecycle *)
  debug_log : bool;  (** [DPC_TIMING_DEBUG] set: log event counts *)
  grids : grid_state array;
  smxs : smx_state array;
  events : event Heap.t;
  mutable now : float;
  (* grid dispatch *)
  ready_queue : int Queue.t;
  mutable active_grids : int;  (** dispatched and not drained *)
  mutable pending_count : int;
  mutable next_dispatch_time : float;
  mutable tick_armed : bool;  (** a Dispatch_tick event is outstanding *)
  (* block placement: blocks of dispatched grids awaiting an SMX slot *)
  place_queue : block_run Queue.t;
  (* host roots *)
  mutable roots_left : int list;
  mutable current_root : int;
  (* metrics *)
  mutable device_warps : int;
  mutable busy_smxs : int;  (** SMXs with at least one resident block *)
  mutable occ_integral : float;
  mutable busy_integral : float;  (** SMX-cycles with a block resident *)
  mutable occ_last : float;
  mutable extra_dram : int;
  mutable virtualized : int;
  mutable max_pending : int;
  mutable swapped_syncs : int;
  mutable completed_grids : int;
  mutable samples : (float * int) list;  (** (time, resident warps), reversed *)
}

let seg_work cfg (s : Trace.segment) =
  Float.of_int
    (s.Trace.issue_cycles
    + (s.Trace.dram_transactions * cfg.Cfg.dram_transaction_cycles)
    + (s.Trace.l2_hits * cfg.Cfg.l2_hit_cycles)
    + (s.Trace.bank_replays * cfg.Cfg.bank_replay_cycles)
    + (s.Trace.mshr_stalls * cfg.Cfg.mshr_stall_cycles))

let make_block_run cfg (g : Trace.grid_exec) (bt : Trace.block_trace) =
  {
    grid_id = g.Trace.gid;
    bidx = bt.Trace.block_idx;
    warps = bt.Trace.warps;
    segments = bt.Trace.segments;
    seg_i = 0;
    remaining =
      seg_work cfg bt.Trace.segments.(0)
      +. Float.of_int cfg.Cfg.block_start_cycles;
    extra_next = 0.0;
    rate = 0.0;
    last_update = 0.0;
    smx = -1;
    epoch = 0;
    children_out = 0;
    waiting_sync = false;
    waiting_barrier = false;
    finished = false;
  }

let create ?(scheduler = Processor_sharing) ?(record_timeline = false) ?sink
    cfg (grids : Trace.grid_exec array) (roots : int list) =
  let mk_grid (g : Trace.grid_exec) =
    {
      trace = g;
      blocks = Array.map (make_block_run cfg g) g.Trace.blocks;
      blocks_done = 0;
      children_out = 0;
      barrier_arrived = 0;
      dispatched = false;
      drained = false;
      completed = false;
      suspended = 0;
      started = false;
      yielded = false;
    }
  in
  {
    cfg;
    scheduler;
    record_timeline;
    sink;
    trace_log = Sys.getenv_opt "DPC_TIMING_TRACE" <> None;
    debug_log = Sys.getenv_opt "DPC_TIMING_DEBUG" <> None;
    grids = Array.map mk_grid grids;
    smxs =
      Array.init cfg.Cfg.num_smx (fun _ ->
          { resident = []; warps_used = 0; nblocks = 0 });
    events = Heap.create ();
    now = 0.0;
    ready_queue = Queue.create ();
    active_grids = 0;
    pending_count = 0;
    next_dispatch_time = 0.0;
    tick_armed = false;
    place_queue = Queue.create ();
    roots_left = roots;
    current_root = -1;
    device_warps = 0;
    busy_smxs = 0;
    occ_integral = 0.0;
    busy_integral = 0.0;
    occ_last = 0.0;
    extra_dram = 0;
    virtualized = 0;
    max_pending = 0;
    swapped_syncs = 0;
    completed_grids = 0;
    samples = [];
  }

(* --- event publication --------------------------------------------------- *)

(* Publish one typed event to the profiling sink, stamped with the
   current simulated cycle and the grid's identity.  A [None] sink makes
   this a cheap no-op, so unprofiled runs pay one branch per site. *)
let emit t ?(smx = -1) (g : grid_state) kind =
  match t.sink with
  | None -> ()
  | Some sink ->
    sink
      {
        Ev.cycles = t.now;
        gid = g.trace.Trace.gid;
        kernel = g.trace.Trace.kernel;
        depth = g.trace.Trace.depth;
        smx;
        kind;
      }

(* Allocator activity recorded by the interpreter on the segment that
   just retired, replayed at the segment's simulated end time. *)
let emit_segment_allocs t (b : block_run) (seg : Trace.segment) =
  if t.sink <> None && seg.Trace.alloc_calls > 0 then
    emit t ~smx:b.smx
      t.grids.(b.grid_id)
      (Ev.Alloc
         {
           calls = seg.Trace.alloc_calls;
           fallbacks = seg.Trace.alloc_fallbacks;
           cycles = seg.Trace.alloc_cycles;
         })

(* --- occupancy accounting ----------------------------------------------- *)

let occ_note t =
  let dt = t.now -. t.occ_last in
  if dt > 0.0 then begin
    t.occ_integral <- t.occ_integral +. (Float.of_int t.device_warps *. dt);
    t.busy_integral <- t.busy_integral +. (Float.of_int t.busy_smxs *. dt);
    if t.record_timeline then
      t.samples <- (t.occ_last, t.device_warps) :: t.samples;
    t.occ_last <- t.now
  end

(* --- processor-sharing SMX model ---------------------------------------- *)

let update_smx t (s : smx_state) =
  List.iter
    (fun b ->
      let dt = t.now -. b.last_update in
      if dt > 0.0 then
        b.remaining <- Float.max 0.0 (b.remaining -. (b.rate *. dt));
      b.last_update <- t.now)
    s.resident

let reschedule t (b : block_run) =
  b.epoch <- b.epoch + 1;
  let dt = if b.rate > 0.0 then b.remaining /. b.rate else 0.0 in
  Heap.push t.events (t.now +. dt) (Seg_done (b, b.epoch))

let recompute_rates t (s : smx_state) =
  let issue = Float.of_int t.cfg.Cfg.issue_rate in
  (* Dual-issue: each resident warp may issue up to [issue_per_warp]
     instructions per cycle, so a block's ceiling is warps x slots.  At
     the default 1 this is exactly the historical single-issue model. *)
  let ipw = Float.of_int t.cfg.Cfg.issue_per_warp in
  let total_warps =
    List.fold_left (fun acc b -> acc + b.warps) 0 s.resident
  in
  List.iter
    (fun b ->
      let w = Float.of_int b.warps in
      let rate =
        match t.scheduler with
        | Fcfs -> Float.min (w *. ipw) issue
        | Processor_sharing ->
          if total_warps = 0 then 0.0
          else Float.min (w *. ipw) (issue *. w /. Float.of_int total_warps)
      in
      b.rate <- rate;
      reschedule t b)
    s.resident

let add_to_smx t (b : block_run) smx_idx =
  let s = t.smxs.(smx_idx) in
  update_smx t s;
  b.smx <- smx_idx;
  b.last_update <- t.now;
  occ_note t;
  s.resident <- b :: s.resident;
  s.warps_used <- s.warps_used + b.warps;
  s.nblocks <- s.nblocks + 1;
  if s.nblocks = 1 then t.busy_smxs <- t.busy_smxs + 1;
  t.device_warps <- t.device_warps + b.warps;
  (let g = t.grids.(b.grid_id) in
   if not g.started then begin
     g.started <- true;
     emit t ~smx:smx_idx g Ev.Grid_started
   end;
   emit t ~smx:smx_idx g (Ev.Block_placed { block = b.bidx; warps = b.warps }));
  recompute_rates t s

let remove_from_smx t (b : block_run) =
  if b.smx >= 0 then begin
    let s = t.smxs.(b.smx) in
    update_smx t s;
    occ_note t;
    s.resident <- List.filter (fun x -> x != b) s.resident;
    s.warps_used <- s.warps_used - b.warps;
    s.nblocks <- s.nblocks - 1;
    if s.nblocks = 0 then t.busy_smxs <- t.busy_smxs - 1;
    t.device_warps <- t.device_warps - b.warps;
    emit t ~smx:b.smx
      t.grids.(b.grid_id)
      (Ev.Block_removed { block = b.bidx; warps = b.warps });
    b.smx <- -1;
    b.epoch <- b.epoch + 1;
    recompute_rates t s
  end

(* --- block placement ----------------------------------------------------- *)

let find_smx t warps =
  let best = ref (-1) in
  let best_load = ref max_int in
  Array.iteri
    (fun i s ->
      if
        s.nblocks < t.cfg.Cfg.max_blocks_per_smx
        && s.warps_used + warps <= t.cfg.Cfg.max_warps_per_smx
        && s.warps_used < !best_load
      then begin
        best := i;
        best_load := s.warps_used
      end)
    t.smxs;
  !best

let rec place_blocks t =
  if not (Queue.is_empty t.place_queue) then begin
    let b = Queue.peek t.place_queue in
    let smx = find_smx t b.warps in
    if smx >= 0 then begin
      ignore (Queue.pop t.place_queue);
      add_to_smx t b smx;
      place_blocks t
    end
  end

(* --- grid dispatch ------------------------------------------------------- *)

let rec try_dispatch t =
  if
    (not (Queue.is_empty t.ready_queue))
    && t.active_grids < t.cfg.Cfg.max_concurrent_grids
  then begin
    if t.now +. 1e-9 < t.next_dispatch_time then begin
      (* Rate-limited: arm (at most one) wake-up at the next dispatch slot. *)
      if not t.tick_armed then begin
        t.tick_armed <- true;
        Heap.push t.events t.next_dispatch_time Dispatch_tick
      end
    end
    else begin
      let gid = Queue.pop t.ready_queue in
      let g = t.grids.(gid) in
      if t.trace_log then
        Printf.eprintf "[%10.0f] dispatch g%d (%s %dx%d)\n" t.now gid
          g.trace.Trace.kernel (Array.length g.blocks)
          g.trace.Trace.block_dim;
      g.dispatched <- true;
      t.pending_count <- t.pending_count - 1;
      t.active_grids <- t.active_grids + 1;
      emit t g (Ev.Grid_launched { pending_left = t.pending_count });
      (* Dispatch throughput collapses while the pending pool is
         virtualized (software-managed pool, Section III.B). *)
      let interval =
        if t.pending_count > t.cfg.Cfg.fixed_pool_capacity then
          t.cfg.Cfg.virtual_dispatch_interval
        else t.cfg.Cfg.dispatch_interval
      in
      t.next_dispatch_time <- t.now +. Float.of_int interval;
      Array.iter (fun b -> Queue.push b t.place_queue) g.blocks;
      place_blocks t;
      (* Zero-block work (empty grids) cannot occur: grid_dim >= 1. *)
      try_dispatch t
    end
  end

(* A device- or host-side launch enters the pending pool. *)
and launch_grid t gid ~latency =
  t.pending_count <- t.pending_count + 1;
  let high_water = t.pending_count > t.max_pending in
  if high_water then t.max_pending <- t.pending_count;
  let virtualized = t.pending_count > t.cfg.Cfg.fixed_pool_capacity in
  let penalty =
    if virtualized then begin
      t.virtualized <- t.virtualized + 1;
      t.extra_dram <- t.extra_dram + t.cfg.Cfg.virtual_pool_dram;
      Float.of_int t.cfg.Cfg.virtual_pool_penalty
    end
    else 0.0
  in
  (let g = t.grids.(gid) in
   emit t g (Ev.Grid_enqueued { pending = t.pending_count; virtualized });
   if high_water then
     emit t g (Ev.Pool_high_water { level = t.pending_count });
   if virtualized then
     emit t g (Ev.Pool_virtualized { pending = t.pending_count }));
  Heap.push t.events (t.now +. Float.of_int latency +. penalty) (Grid_ready gid)

(* --- completion plumbing -------------------------------------------------- *)

(* Start the current segment's successor on the same SMX (the block stays
   resident: launches do not suspend the parent). *)
let advance_in_place t (b : block_run) =
  b.seg_i <- b.seg_i + 1;
  b.remaining <- seg_work t.cfg b.segments.(b.seg_i) +. b.extra_next;
  b.extra_next <- 0.0;
  b.last_update <- t.now;
  reschedule t b

(* Re-enter the placement queue with the next segment pending. *)
let requeue_block t (b : block_run) =
  b.seg_i <- b.seg_i + 1;
  b.remaining <- seg_work t.cfg b.segments.(b.seg_i) +. b.extra_next;
  b.extra_next <- 0.0;
  Queue.push b t.place_queue;
  place_blocks t

(* If every unfinished block of [g] is suspended at a device sync, the
   grid yields its concurrency slot so its children can dispatch (the
   hardware swaps parents out; holding the slot would deadlock). *)
let maybe_yield t (g : grid_state) =
  if
    (not g.yielded) && (not g.drained)
    && g.suspended + g.blocks_done = Array.length g.blocks
  then begin
    g.yielded <- true;
    t.active_grids <- t.active_grids - 1
  end

let unyield t (g : grid_state) =
  if g.yielded then begin
    g.yielded <- false;
    (* The parent resumes immediately when its children finish; it may
       transiently exceed the concurrency cap, as preemption does. *)
    t.active_grids <- t.active_grids + 1
  end

let rec grid_drained t (g : grid_state) =
  if not g.drained then begin
    g.drained <- true;
    if not g.yielded then t.active_grids <- t.active_grids - 1;
    g.yielded <- false;
    try_dispatch t
  end;
  check_grid_complete t g

and check_grid_complete t (g : grid_state) =
  if
    g.drained && (not g.completed)
    && g.blocks_done = Array.length g.blocks
    && g.children_out = 0
  then begin
    g.completed <- true;
    if t.trace_log then
      Printf.eprintf "[%10.0f] complete g%d (%s)\n" t.now g.trace.Trace.gid
        g.trace.Trace.kernel;
    t.completed_grids <- t.completed_grids + 1;
    if t.sink <> None then begin
      let totals = Trace.totals_of_grid g.trace in
      emit t g
        (Ev.Grid_completed
           {
             issue_cycles = totals.Trace.total_issue;
             weighted_active = totals.Trace.total_weighted;
             dram_transactions = totals.Trace.total_dram;
             l2_hits = totals.Trace.total_l2_hits;
             bank_replays = totals.Trace.total_bank_replays;
             mshr_stalls = totals.Trace.total_mshr_stalls;
             blocks = Array.length g.blocks;
             warps = Array.fold_left (fun acc b -> acc + b.warps) 0 g.blocks;
           })
    end;
    (match g.trace.Trace.parent with
    | Some (pgid, pbidx) ->
      let pg = t.grids.(pgid) in
      pg.children_out <- pg.children_out - 1;
      let pb = pg.blocks.(pbidx) in
      pb.children_out <- pb.children_out - 1;
      if pb.waiting_sync && pb.children_out = 0 then begin
        pb.waiting_sync <- false;
        pg.suspended <- pg.suspended - 1;
        emit t pg (Ev.Swap_in { block = pbidx });
        unyield t pg;
        requeue_block t pb
      end;
      check_grid_complete t pg
    | None -> (
      (* A root finished: issue the next host launch. *)
      match t.roots_left with
      | next :: rest ->
        t.roots_left <- rest;
        t.current_root <- next;
        launch_grid t next ~latency:t.cfg.Cfg.host_launch_latency
      | [] -> ()));
    try_dispatch t
  end

let block_finished t (b : block_run) =
  b.finished <- true;
  remove_from_smx t b;
  place_blocks t;
  let g = t.grids.(b.grid_id) in
  g.blocks_done <- g.blocks_done + 1;
  if g.blocks_done = Array.length g.blocks then grid_drained t g

(* --- segment-end handling -------------------------------------------------- *)

let handle_segment_end t (b : block_run) =
  let g = t.grids.(b.grid_id) in
  let seg = b.segments.(b.seg_i) in
  emit_segment_allocs t b seg;
  match seg.Trace.ends_with with
  | Trace.Seg_done -> block_finished t b
  | Trace.Seg_launch child_ids ->
    Array.iter
      (fun cgid ->
        g.children_out <- g.children_out + 1;
        b.children_out <- b.children_out + 1;
        launch_grid t cgid ~latency:t.cfg.Cfg.device_launch_latency)
      child_ids;
    advance_in_place t b
  | Trace.Seg_sync ->
    if b.children_out = 0 then
      (* Children already complete: no swap occurs. *)
      advance_in_place t b
    else begin
      (* The parent block is swapped out to free resources (Section III.B). *)
      t.swapped_syncs <- t.swapped_syncs + 1;
      t.extra_dram <- t.extra_dram + t.cfg.Cfg.sync_swap_dram;
      b.extra_next <- b.extra_next +. Float.of_int t.cfg.Cfg.sync_swap_cycles;
      b.waiting_sync <- true;
      let smx = b.smx in
      remove_from_smx t b;
      emit t ~smx g (Ev.Swap_out { block = b.bidx });
      g.suspended <- g.suspended + 1;
      maybe_yield t g;
      place_blocks t;
      try_dispatch t
    end
  | Trace.Seg_barrier ->
    g.barrier_arrived <- g.barrier_arrived + 1;
    let n = Array.length g.blocks in
    let all_arrived = g.barrier_arrived = n in
    if b.bidx = n - 1 then
      (* The designated continuation block: it proceeds only once every
         sibling has arrived; until then it vacates the SMX. *)
      if all_arrived then advance_in_place t b
      else begin
        b.waiting_barrier <- true;
        remove_from_smx t b;
        place_blocks t
      end
    else begin
      (* Non-continuation blocks exit right after arriving (their trailing
         segments are empty); the last arrival releases the continuation. *)
      if all_arrived then begin
        let cont = g.blocks.(n - 1) in
        if cont.waiting_barrier then begin
          cont.waiting_barrier <- false;
          requeue_block t cont
        end
      end;
      advance_in_place t b
    end

(* --- main loop -------------------------------------------------------------- *)

exception Stuck of string

let run t =
  (match t.roots_left with
  | [] -> ()
  | first :: rest ->
    t.roots_left <- rest;
    t.current_root <- first;
    launch_grid t first ~latency:t.cfg.Cfg.host_launch_latency);
  let n_events = ref 0 in
  let n_ready = ref 0 and n_tick = ref 0 and n_seg = ref 0 and n_stale = ref 0 in
  let progress = ref true in
  while !progress do
    incr n_events;
    match Heap.pop_min t.events with
    | None -> progress := false
    | Some (time, ev) -> (
      (* Stale completion events (superseded by a reschedule) must not
         advance the clock. *)
      let advance () =
        t.now <- Float.max t.now time;
        occ_note t
      in
      match ev with
      | Grid_ready gid ->
        advance ();
        if t.trace_log then
          Printf.eprintf "[%10.0f] ready g%d\n" t.now gid;
        incr n_ready;
        Queue.push gid t.ready_queue;
        try_dispatch t
      | Dispatch_tick ->
        advance ();
        incr n_tick;
        t.tick_armed <- false;
        try_dispatch t
      | Seg_done (b, epoch) ->
        incr n_seg;
        if epoch <> b.epoch then incr n_stale;
        if epoch = b.epoch && not b.finished then begin
          advance ();
          (* Settle the block's accounting at the current time. *)
          if b.smx >= 0 then update_smx t t.smxs.(b.smx);
          if b.remaining <= 1e-6 then begin
            b.remaining <- 0.0;
            handle_segment_end t b
          end
          else
            (* Rates changed since this event was scheduled; re-arm. *)
            reschedule t b
        end)
  done;
  (if t.debug_log then
     Printf.eprintf "[timing] events %d: ready %d tick %d seg %d (stale %d) grids %d\n%!"
       !n_events !n_ready !n_tick !n_seg !n_stale (Array.length t.grids));
  let incomplete =
    Array.fold_left
      (fun acc g -> if g.completed then acc else acc + 1)
      0 t.grids
  in
  if incomplete > 0 then
    raise
      (Stuck
         (Printf.sprintf
            "timing model finished with %d incomplete grids (deadlock?)"
            incomplete));
  occ_note t;
  (* Achieved occupancy as the profiler defines it: average resident warps
     per *busy* SMX over the warp capacity (idle launch-latency gaps and
     idle SMXs are not averaged in). *)
  let denom = t.busy_integral *. Float.of_int t.cfg.Cfg.max_warps_per_smx in
  {
    total_cycles = t.now;
    occupancy = (if denom > 0.0 then t.occ_integral /. denom else 0.0);
    extra_dram = t.extra_dram;
    virtualized_launches = t.virtualized;
    max_pending = t.max_pending;
    swapped_syncs = t.swapped_syncs;
  }

(** Convenience: build and run a timing model over recorded traces. *)
let simulate ?scheduler ?sink cfg grids roots =
  let t = create ?scheduler ?sink cfg grids roots in
  run t

(** Resident-warp samples ((start_time, warps) steps, in time order);
    empty unless created with [record_timeline:true]. *)
let timeline t = List.rev t.samples
