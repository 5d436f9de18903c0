(** Device-heap allocators for consolidation buffers (Section IV.E).

    The paper compares three ways to allocate consolidation buffers from
    device code:

    - [Default]: the CUDA device-side [malloc]/[free].  Functionally a
      fresh buffer; the cost model charges the documented heavy per-call
      overhead (heap lock, free-list walk).
    - [Halloc]: Adinetz's slab-based GPU allocator.  We implement the slab
      bookkeeping (size classes, slab carving from a pool) so allocation
      counts and fragmentation are real, with a cheaper — but still
      per-call — cost.
    - [Pool]: the paper's customized allocator: a pre-allocated memory
      pool (500 MB by default) carved by a single atomic bump per
      allocation.  The per-buffer size is predicted by the transform
      (see [Dpc.Transform]); if the pool is exhausted the allocator falls
      back to [Default] behaviour and records the fallback (ablation 4 in
      DESIGN.md).

    Every [alloc]/[free] returns the cycle cost the calling warp pays;
    the simulator charges it to the executing segment. *)

module Memory = Dpc_gpu.Memory

type kind = Default | Halloc | Pool

let kind_to_string = function
  | Default -> "default"
  | Halloc -> "halloc"
  | Pool -> "pre-alloc"

type costs = {
  alloc_cycles : int;
  free_cycles : int;
  serial_cycles : int;
      (** queueing cost per already-in-flight allocation: the device heap
          serializes concurrent calls on a global lock, so an allocation's
          latency grows with the number of allocations contending with it *)
}

(* Cost-model constants, cycles per call.  The default heap serializes on a
   global lock and walks free lists; halloc shards the lock over slabs but
   still serializes within a slab set; the pool is one atomicAdd. *)
let default_costs = { alloc_cycles = 4_000; free_cycles = 900; serial_cycles = 1_600 }
let halloc_costs = { alloc_cycles = 2_600; free_cycles = 600; serial_cycles = 1_100 }
let pool_costs = { alloc_cycles = 40; free_cycles = 8; serial_cycles = 0 }

(* --- halloc slab bookkeeping ------------------------------------------ *)

type slab_state = {
  mutable slabs_carved : int;
  (* free blocks per size class (16B << class) *)
  class_free : int array;
  slab_bytes : int;
}

let halloc_classes = 16

let make_slab_state () =
  { slabs_carved = 0; class_free = Array.make halloc_classes 0;
    slab_bytes = 4096 }

let size_class bytes =
  let rec go c sz = if sz >= bytes || c = halloc_classes - 1 then c
    else go (c + 1) (sz * 2)
  in
  go 0 16

type t = {
  kind : kind;
  costs : costs;
  pool_bytes : int;  (** capacity of the pre-allocated pool *)
  mutable pool_used : int;
  slab : slab_state;
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_served : int;
  mutable pool_fallbacks : int;  (** pool exhausted -> default path *)
  mutable live_bytes : (int, int) Hashtbl.t;  (** buf id -> bytes *)
  heap_ids : (int, unit) Hashtbl.t;
      (** buffers actually serviced by the default heap (pool-exhaustion
          fallbacks, halloc oversize requests): their [free] must pay the
          default heap's cost, not the owning allocator's *)
}

let create ?(pool_bytes = 500 * 1024 * 1024) kind =
  {
    kind;
    costs =
      (match kind with
      | Default -> default_costs
      | Halloc -> halloc_costs
      | Pool -> pool_costs);
    pool_bytes;
    pool_used = 0;
    slab = make_slab_state ();
    allocs = 0;
    frees = 0;
    bytes_served = 0;
    pool_fallbacks = 0;
    live_bytes = Hashtbl.create 64;
    heap_ids = Hashtbl.create 16;
  }

let kind t = t.kind

let allocs t = t.allocs
let frees t = t.frees
let bytes_served t = t.bytes_served
let pool_fallbacks t = t.pool_fallbacks
let pool_used t = t.pool_used

(** Allocate [count] 32-bit elements; returns the fresh buffer and the
    cycle cost paid by the allocating warp.  [contention] is the number of
    allocation calls already issued by the same grid (the heap-lock queue
    this call waits behind). *)
let alloc ?(contention = 0) t mem ~name ~count =
  let count = Int.max 1 count in
  let bytes = count * Memory.elem_bytes in
  t.allocs <- t.allocs + 1;
  t.bytes_served <- t.bytes_served + bytes;
  let queue = contention * t.costs.serial_cycles in
  (* Requests punted to the default heap pay its full price, including its
     own (heavier) lock-queue term. *)
  let heap_cost = default_costs.alloc_cycles + (contention * default_costs.serial_cycles) in
  let cost, on_heap =
    match t.kind with
    | Default -> (t.costs.alloc_cycles + queue, false)
    | Halloc ->
      if bytes > t.slab.slab_bytes then
        (* Oversize request: no slab can hold it; halloc forwards it to the
           device heap instead of carving slabs that yield zero blocks. *)
        (heap_cost, true)
      else begin
        (* Hashed slab lookup; carving a fresh slab costs extra. *)
        let cls = size_class bytes in
        if t.slab.class_free.(cls) > 0 then begin
          t.slab.class_free.(cls) <- t.slab.class_free.(cls) - 1;
          (t.costs.alloc_cycles + queue, false)
        end
        else begin
          t.slab.slabs_carved <- t.slab.slabs_carved + 1;
          let block = Int.max 16 (16 lsl cls) in
          t.slab.class_free.(cls) <-
            t.slab.class_free.(cls) + Int.max 0 ((t.slab.slab_bytes / block) - 1);
          (t.costs.alloc_cycles + queue + 800, false)
        end
      end
    | Pool ->
      if t.pool_used + bytes <= t.pool_bytes then begin
        t.pool_used <- t.pool_used + bytes;
        (t.costs.alloc_cycles, false)
      end
      else begin
        (* Pool exhausted: fall back to the default heap. *)
        t.pool_fallbacks <- t.pool_fallbacks + 1;
        (heap_cost, true)
      end
  in
  let buf = Memory.alloc_int mem ~name count in
  Hashtbl.replace t.live_bytes buf.Memory.id bytes;
  if on_heap then Hashtbl.replace t.heap_ids buf.Memory.id ();
  (buf, cost)

(** Release a buffer previously returned by [alloc]; returns the cycle
    cost.  The pool allocator reclaims nothing (bump allocation): within
    a run its bump pointer only grows, and once the pool is exhausted
    every further allocation falls back to the default heap. *)
let free t (buf : Memory.buf) =
  t.frees <- t.frees + 1;
  let on_heap = Hashtbl.mem t.heap_ids buf.Memory.id in
  Hashtbl.remove t.heap_ids buf.Memory.id;
  (match Hashtbl.find_opt t.live_bytes buf.Memory.id with
  | Some bytes ->
    Hashtbl.remove t.live_bytes buf.Memory.id;
    (match t.kind with
    | Halloc when not on_heap ->
      let cls = size_class bytes in
      t.slab.class_free.(cls) <- t.slab.class_free.(cls) + 1
    | Halloc | Default | Pool -> ())
  | None -> ());
  (* Buffers that came from the default heap pay its release cost. *)
  if on_heap then default_costs.free_cycles else t.costs.free_cycles
