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
    kernel invocations, as the benchmark drivers do.

    Events are ordered by (time, seq), where seq is drawn from one
    counter whenever an event is scheduled.  A resident block holds at
    most one pending completion key, replaced in place when rates change;
    the queue holds one entry per SMX (its earliest resident key) plus
    the pending grid-ready and dispatch wake-up events, so a superseded
    completion is never queued and never popped (DESIGN.md section 14). *)

module Cfg = Dpc_gpu.Config
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

(* --- event queue ---------------------------------------------------------- *)

(* A binary min-heap over (time, seq) keys, stored as parallel unboxed
   arrays.  Every entry carries an integer id below [ids]; an id is in
   the queue at most once, and [pos] maps it to its heap slot so that its
   key can be changed or the entry cancelled in place.  Seqs are unique,
   so (time, seq) is a strict total order and the pop sequence does not
   depend on the heap's shape. *)
module Event_queue = struct
  type t = {
    mutable time : Float.Array.t;
    mutable seq : int array;
    mutable id : int array;
    pos : int array;  (** id -> heap slot; -1 when absent *)
    mutable len : int;
    mutable rekeys : int;
    mutable cancels : int;
    mutable peak : int;
  }

  let create ~ids =
    let cap = Int.min ids 16 in
    {
      time = Float.Array.make cap 0.0;
      seq = Array.make cap 0;
      id = Array.make cap 0;
      pos = Array.make ids (-1);
      len = 0;
      rekeys = 0;
      cancels = 0;
      peak = 0;
    }

  let length q = q.len
  let is_empty q = q.len = 0
  let mem q id = q.pos.(id) >= 0
  let min_time q = Float.Array.get q.time 0
  let min_seq q = q.seq.(0)
  let min_id q = q.id.(0)
  let rekeys q = q.rekeys
  let cancels q = q.cancels
  let peak q = q.peak

  let before q i j =
    let ti = Float.Array.get q.time i and tj = Float.Array.get q.time j in
    ti < tj || (ti = tj && q.seq.(i) < q.seq.(j))

  let swap q i j =
    let ti = Float.Array.get q.time i and si = q.seq.(i) and di = q.id.(i) in
    let dj = q.id.(j) in
    Float.Array.set q.time i (Float.Array.get q.time j);
    q.seq.(i) <- q.seq.(j);
    q.id.(i) <- dj;
    q.pos.(dj) <- i;
    Float.Array.set q.time j ti;
    q.seq.(j) <- si;
    q.id.(j) <- di;
    q.pos.(di) <- j

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before q i parent then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 in
    if l < q.len then begin
      let r = l + 1 in
      let c = if r < q.len && before q r l then r else l in
      if before q c i then begin
        swap q i c;
        sift_down q c
      end
    end

  (* Restore the heap order around slot [i] after its key changed. *)
  let settle q i =
    sift_up q i;
    sift_down q q.pos.(q.id.(i))

  let grow q =
    let cap = Int.min (Array.length q.pos) (2 * q.len) in
    let time = Float.Array.make cap 0.0 in
    Float.Array.blit q.time 0 time 0 q.len;
    q.time <- time;
    q.seq <- Array.append q.seq (Array.make (cap - q.len) 0);
    q.id <- Array.append q.id (Array.make (cap - q.len) 0)

  (* Insert [id] with key (time, seq), or rekey it in place if present. *)
  let[@inline] set q id time seq =
    let i = q.pos.(id) in
    if i >= 0 then begin
      if q.seq.(i) <> seq || Float.Array.get q.time i <> time then begin
        q.rekeys <- q.rekeys + 1;
        Float.Array.set q.time i time;
        q.seq.(i) <- seq;
        settle q i
      end
    end
    else begin
      if q.len = Array.length q.seq then grow q;
      let i = q.len in
      q.len <- i + 1;
      if q.len > q.peak then q.peak <- q.len;
      Float.Array.set q.time i time;
      q.seq.(i) <- seq;
      q.id.(i) <- id;
      q.pos.(id) <- i;
      sift_up q i
    end

  let remove_at q i =
    let gone = q.id.(i) in
    let last = q.len - 1 in
    q.len <- last;
    q.pos.(gone) <- -1;
    if i < last then begin
      let moved = q.id.(last) in
      Float.Array.set q.time i (Float.Array.get q.time last);
      q.seq.(i) <- q.seq.(last);
      q.id.(i) <- moved;
      q.pos.(moved) <- i;
      settle q i
    end

  let pop q = remove_at q 0

  let cancel q id =
    let i = q.pos.(id) in
    if i >= 0 then begin
      q.cancels <- q.cancels + 1;
      remove_at q i
    end
end

(* --- runtime state ------------------------------------------------------ *)

(* The mutable floats live in all-float records, which OCaml stores
   flat: updating them neither allocates nor goes through the write
   barrier. *)
type block_clock = {
  mutable remaining : float;  (** work left in the current segment *)
  mutable extra_next : float;  (** swap cost charged to the next segment *)
  mutable rate : float;
  mutable last_update : float;
  mutable due : float;  (** time of the pending completion key *)
}

type block_run = {
  grid_id : int;
  bidx : int;
  warps : int;
  segments : Trace.segment array;
  mutable seg_i : int;
  clk : block_clock;
  mutable due_seq : int;
      (** seq of the pending completion key (time [clk.due]); -1 when the
          block has none *)
  mutable smx : int;  (** -1 when not resident *)
  mutable children_out : int;
  mutable waiting_sync : bool;
  mutable waiting_barrier : bool;
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
  mutable started : bool;
      (** a block of this grid has reached an SMX (tracked when profiling) *)
  mutable yielded : bool;
      (** every unfinished block is swapped out: the grid releases its
          concurrency slot (the runtime swaps parents to let children run,
          Section II.A) *)
}

type smx_state = {
  idx : int;  (** also the SMX's event id in the queue *)
  mutable dirty : bool;  (** its queue entry awaits a {!refresh} *)
  resident : block_run array;
      (** slots [0, nblocks) in placement order, oldest first *)
  mutable warps_used : int;
  mutable nblocks : int;
}

type clock = {
  mutable now : float;
  mutable next_dispatch_time : float;
  mutable occ_integral : float;
  mutable busy_integral : float;  (** SMX-cycles with a block resident *)
  mutable occ_last : float;
}

type t = {
  cfg : Cfg.t;
  scheduler : scheduler;
  sink : Ev.sink option;  (** per-run profiling sink; no global state *)
  debug_log : bool;  (** [DPC_TIMING_DEBUG] set: log event counts *)
  grids : grid_state array;
  smxs : smx_state array;
  events : Event_queue.t;
      (** ids: [i] for SMX [i] (its earliest resident completion key),
          [tick_id] for the dispatch wake-up, [ready_id g] for grid [g]
          becoming ready *)
  mutable next_seq : int;  (** tie-break counter for event keys *)
  dirty : int array;  (** SMXs awaiting a refresh, [ndirty] of them *)
  mutable ndirty : int;
  clk : clock;
  (* grid dispatch *)
  ready_queue : int Queue.t;
  mutable active_grids : int;  (** dispatched and not drained *)
  mutable pending_count : int;
  (* block placement: blocks of dispatched grids awaiting an SMX slot *)
  place_queue : block_run Queue.t;
  (* host roots *)
  mutable roots_left : int list;
  (* metrics *)
  mutable device_warps : int;
  mutable busy_smxs : int;  (** SMXs with at least one resident block *)
  mutable extra_dram : int;
  mutable virtualized : int;
  mutable max_pending : int;
  mutable swapped_syncs : int;
}

let tick_id t = Array.length t.smxs
let ready_id t gid = Array.length t.smxs + 1 + gid

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let[@inline] seg_work cfg (s : Trace.segment) =
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
    clk =
      {
        remaining =
          seg_work cfg bt.Trace.segments.(0)
          +. Float.of_int cfg.Cfg.block_start_cycles;
        extra_next = 0.0;
        rate = 0.0;
        last_update = 0.0;
        due = 0.0;
      };
    due_seq = -1;
    smx = -1;
    children_out = 0;
    waiting_sync = false;
    waiting_barrier = false;
  }

(* Fills the vacant [smx_state.resident] slots; never mutated. *)
let no_block =
  {
    grid_id = -1;
    bidx = -1;
    warps = 0;
    segments = [||];
    seg_i = 0;
    clk =
      {
        remaining = 0.0;
        extra_next = 0.0;
        rate = 0.0;
        last_update = 0.0;
        due = 0.0;
      };
    due_seq = -1;
    smx = -1;
    children_out = 0;
    waiting_sync = false;
    waiting_barrier = false;
  }

let create ?(scheduler = Processor_sharing) ?sink
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
    sink;
    debug_log = Sys.getenv_opt "DPC_TIMING_DEBUG" <> None;
    grids = Array.map mk_grid grids;
    smxs =
      Array.init cfg.Cfg.num_smx (fun idx ->
          {
            idx;
            dirty = false;
            resident = Array.make cfg.Cfg.max_blocks_per_smx no_block;
            warps_used = 0;
            nblocks = 0;
          });
    events =
      Event_queue.create ~ids:(cfg.Cfg.num_smx + 1 + Array.length grids);
    next_seq = 0;
    dirty = Array.make cfg.Cfg.num_smx 0;
    ndirty = 0;
    clk =
      {
        now = 0.0;
        next_dispatch_time = 0.0;
        occ_integral = 0.0;
        busy_integral = 0.0;
        occ_last = 0.0;
      };
    ready_queue = Queue.create ();
    active_grids = 0;
    pending_count = 0;
    place_queue = Queue.create ();
    roots_left = roots;
    device_warps = 0;
    busy_smxs = 0;
    extra_dram = 0;
    virtualized = 0;
    max_pending = 0;
    swapped_syncs = 0;
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
        Ev.cycles = t.clk.now;
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
  let c = t.clk in
  let dt = c.now -. c.occ_last in
  if dt > 0.0 then begin
    c.occ_integral <- c.occ_integral +. (Float.of_int t.device_warps *. dt);
    c.busy_integral <- c.busy_integral +. (Float.of_int t.busy_smxs *. dt);
    c.occ_last <- c.now
  end

(* --- processor-sharing SMX model ---------------------------------------- *)

let update_smx t (s : smx_state) =
  let now = t.clk.now in
  for k = s.nblocks - 1 downto 0 do
    let c = s.resident.(k).clk in
    let dt = now -. c.last_update in
    if dt > 0.0 then
      c.remaining <- Float.max 0.0 (c.remaining -. (c.rate *. dt));
    c.last_update <- now
  done

(* Point the SMX's queue entry at its earliest pending completion key,
   or drop the entry when no resident block has one. *)
let refresh t (s : smx_state) =
  let best = ref no_block in
  for k = 0 to s.nblocks - 1 do
    let b = s.resident.(k) in
    if
      b.due_seq >= 0
      && (!best == no_block
         || b.clk.due < !best.clk.due
         || (b.clk.due = !best.clk.due && b.due_seq < !best.due_seq))
    then best := b
  done;
  let b = !best in
  if b == no_block then Event_queue.cancel t.events s.idx
  else Event_queue.set t.events s.idx b.clk.due b.due_seq

(* A key of [s]'s resident blocks changed: refresh its entry before the
   next pop.  Deferring merges the several changes one event makes. *)
let touch t (s : smx_state) =
  if not s.dirty then begin
    s.dirty <- true;
    t.dirty.(t.ndirty) <- s.idx;
    t.ndirty <- t.ndirty + 1
  end

let flush t =
  for i = 0 to t.ndirty - 1 do
    let s = t.smxs.(t.dirty.(i)) in
    s.dirty <- false;
    refresh t s
  done;
  t.ndirty <- 0

(* Give resident block [b] a fresh completion key at its current rate. *)
let rekey t (b : block_run) =
  let c = b.clk in
  let dt = if c.rate > 0.0 then c.remaining /. c.rate else 0.0 in
  c.due <- t.clk.now +. dt;
  b.due_seq <- fresh_seq t;
  touch t t.smxs.(b.smx)

let recompute_rates t (s : smx_state) =
  let issue = Float.of_int t.cfg.Cfg.issue_rate in
  (* Dual-issue: each resident warp may issue up to [issue_per_warp]
     instructions per cycle, so a block's ceiling is warps x slots.  At
     the default 1 this is exactly the historical single-issue model. *)
  let ipw = Float.of_int t.cfg.Cfg.issue_per_warp in
  let total_warps = s.warps_used in
  (* Newest first: the order in which keys draw their seqs. *)
  for k = s.nblocks - 1 downto 0 do
    let b = s.resident.(k) in
    let w = Float.of_int b.warps in
    let rate =
      match t.scheduler with
      | Fcfs -> Float.min (w *. ipw) issue
      | Processor_sharing ->
        if total_warps = 0 then 0.0
        else Float.min (w *. ipw) (issue *. w /. Float.of_int total_warps)
    in
    b.clk.rate <- rate;
    rekey t b
  done;
  (* Also when the last block left: its entry must go. *)
  touch t s

let add_to_smx t (b : block_run) smx_idx =
  let s = t.smxs.(smx_idx) in
  update_smx t s;
  b.smx <- smx_idx;
  b.clk.last_update <- t.clk.now;
  occ_note t;
  s.resident.(s.nblocks) <- b;
  s.warps_used <- s.warps_used + b.warps;
  s.nblocks <- s.nblocks + 1;
  if s.nblocks = 1 then t.busy_smxs <- t.busy_smxs + 1;
  t.device_warps <- t.device_warps + b.warps;
  (* Tested here, not only in [emit]: the payload would be allocated
     before [emit] looks at the sink. *)
  if t.sink <> None then begin
    let g = t.grids.(b.grid_id) in
    if not g.started then begin
      g.started <- true;
      emit t ~smx:smx_idx g Ev.Grid_started
    end;
    emit t ~smx:smx_idx g (Ev.Block_placed { block = b.bidx; warps = b.warps })
  end;
  recompute_rates t s

let remove_from_smx t (b : block_run) =
  if b.smx >= 0 then begin
    let s = t.smxs.(b.smx) in
    update_smx t s;
    occ_note t;
    (* Close the gap, keeping the placement order. *)
    let k = ref 0 in
    while s.resident.(!k) != b do incr k done;
    Array.blit s.resident (!k + 1) s.resident !k (s.nblocks - !k - 1);
    s.resident.(s.nblocks - 1) <- no_block;
    s.warps_used <- s.warps_used - b.warps;
    s.nblocks <- s.nblocks - 1;
    if s.nblocks = 0 then t.busy_smxs <- t.busy_smxs - 1;
    t.device_warps <- t.device_warps - b.warps;
    if t.sink <> None then
      emit t ~smx:b.smx
        t.grids.(b.grid_id)
        (Ev.Block_removed { block = b.bidx; warps = b.warps });
    b.smx <- -1;
    b.due_seq <- -1;
    recompute_rates t s
  end

(* --- block placement ----------------------------------------------------- *)

let find_smx t warps =
  let best = ref (-1) in
  let best_load = ref max_int in
  for i = 0 to Array.length t.smxs - 1 do
    let s = t.smxs.(i) in
    if
      s.nblocks < t.cfg.Cfg.max_blocks_per_smx
      && s.warps_used + warps <= t.cfg.Cfg.max_warps_per_smx
      && s.warps_used < !best_load
    then begin
      best := i;
      best_load := s.warps_used
    end
  done;
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
    if t.clk.now +. 1e-9 < t.clk.next_dispatch_time then begin
      (* Rate-limited: arm (at most one) wake-up at the next dispatch slot. *)
      if not (Event_queue.mem t.events (tick_id t)) then
        Event_queue.set t.events (tick_id t) t.clk.next_dispatch_time
          (fresh_seq t)
    end
    else begin
      let gid = Queue.pop t.ready_queue in
      let g = t.grids.(gid) in
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
      t.clk.next_dispatch_time <- t.clk.now +. Float.of_int interval;
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
  Event_queue.set t.events (ready_id t gid)
    (t.clk.now +. Float.of_int latency +. penalty)
    (fresh_seq t)

(* --- completion plumbing -------------------------------------------------- *)

(* Start the current segment's successor on the same SMX (the block stays
   resident: launches do not suspend the parent). *)
let advance_in_place t (b : block_run) =
  b.seg_i <- b.seg_i + 1;
  let c = b.clk in
  c.remaining <- seg_work t.cfg b.segments.(b.seg_i) +. c.extra_next;
  c.extra_next <- 0.0;
  c.last_update <- t.clk.now;
  rekey t b

(* Re-enter the placement queue with the next segment pending. *)
let requeue_block t (b : block_run) =
  b.seg_i <- b.seg_i + 1;
  let c = b.clk in
  c.remaining <- seg_work t.cfg b.segments.(b.seg_i) +. c.extra_next;
  c.extra_next <- 0.0;
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
        launch_grid t next ~latency:t.cfg.Cfg.host_launch_latency
      | [] -> ()));
    try_dispatch t
  end

let block_finished t (b : block_run) =
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
      b.clk.extra_next <-
        b.clk.extra_next +. Float.of_int t.cfg.Cfg.sync_swap_cycles;
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
    launch_grid t first ~latency:t.cfg.Cfg.host_launch_latency);
  let q = t.events in
  let nsmx = Array.length t.smxs in
  let n_ready = ref 0 and n_tick = ref 0 and n_fired = ref 0 in
  let n_seg = ref 0 in
  flush t;
  while not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q and id = Event_queue.min_id q in
    if id < nsmx then begin
      (* The earliest completion key of SMX [id]: its owner fires. *)
      let s = t.smxs.(id) in
      let seq = Event_queue.min_seq q in
      let k = ref 0 in
      while s.resident.(!k).due_seq <> seq do incr k done;
      let b = s.resident.(!k) in
      b.due_seq <- -1;
      touch t s;
      incr n_fired;
      t.clk.now <- Float.max t.clk.now time;
      occ_note t;
      (* Settle the block's accounting at the current time. *)
      update_smx t s;
      let c = b.clk in
      (* Late in a long replay a tiny remainder can take less than half an
         ulp of [now]: its key lands on [now] again and never advances, so
         it closes the segment as a spent one does. *)
      if
        c.remaining <= 1e-6
        || (c.rate > 0.0 && t.clk.now +. (c.remaining /. c.rate) <= t.clk.now)
      then begin
        c.remaining <- 0.0;
        incr n_seg;
        handle_segment_end t b
      end
      else
        (* Rates changed since this key was drawn; re-arm. *)
        rekey t b
    end
    else begin
      Event_queue.pop q;
      t.clk.now <- Float.max t.clk.now time;
      occ_note t;
      if id = tick_id t then begin
        incr n_tick;
        try_dispatch t
      end
      else begin
        let gid = id - nsmx - 1 in
        incr n_ready;
        Queue.push gid t.ready_queue;
        try_dispatch t
      end
    end;
    flush t
  done;
  (if t.debug_log then
     Printf.eprintf
       "[timing] events %d: ready %d tick %d fired %d seg %d; queue: rekeys \
        %d cancels %d peak %d; grids %d\n%!"
       (!n_ready + !n_tick + !n_fired)
       !n_ready !n_tick !n_fired !n_seg (Event_queue.rekeys q)
       (Event_queue.cancels q) (Event_queue.peak q) (Array.length t.grids));
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
  let c = t.clk in
  let denom = c.busy_integral *. Float.of_int t.cfg.Cfg.max_warps_per_smx in
  {
    total_cycles = c.now;
    occupancy = (if denom > 0.0 then c.occ_integral /. denom else 0.0);
    extra_dram = t.extra_dram;
    virtualized_launches = t.virtualized;
    max_pending = t.max_pending;
    swapped_syncs = t.swapped_syncs;
  }

(** Convenience: build and run a timing model over recorded traces. *)
let simulate ?scheduler ?sink cfg grids roots =
  let t = create ?scheduler ?sink cfg grids roots in
  run t
