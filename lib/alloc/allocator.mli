(** Device-heap allocators for consolidation buffers (Section IV.E).

    Three allocators, as in the paper's Fig. 5 comparison:

    - [Default] — the CUDA device-side [malloc]: heavy per-call cost and a
      global heap lock, modeled as a queueing cost that grows with the
      number of contending allocations;
    - [Halloc] — a slab allocator in the style of Adinetz's halloc: real
      size-class/slab bookkeeping, cheaper but still lock-limited;
    - [Pool] — the paper's customized allocator: a pre-allocated pool
      (500 MB by default) carved by one atomic bump per call; exhaustion
      falls back to the default heap and is counted.

    Every [alloc]/[free] returns the cycle cost the calling warp pays; the
    simulator charges it to the executing trace segment. *)

type kind = Default | Halloc | Pool

val kind_to_string : kind -> string

type t

val create : ?pool_bytes:int -> kind -> t
val kind : t -> kind

(** Statistics. *)
val allocs : t -> int

val frees : t -> int
val bytes_served : t -> int

(** Pool-exhaustion fallbacks to the default heap (ablation A4). *)
val pool_fallbacks : t -> int

val pool_used : t -> int

(** [alloc ?contention t mem ~name ~count] allocates [count] (≥ 1)
    32-bit elements and returns the buffer plus the cycle cost.
    [contention] is the number of allocation calls already issued by the
    same grid — the heap-lock queue this call waits behind. *)
val alloc :
  ?contention:int ->
  t ->
  Dpc_gpu.Memory.t ->
  name:string ->
  count:int ->
  Dpc_gpu.Memory.buf * int

(** Release a buffer; returns the cycle cost.  The pool allocator reclaims
    nothing per-buffer (bump allocation): within a run its bump pointer
    only grows, and once the pool is exhausted every further allocation
    falls back to the default heap.  Buffers that were actually serviced
    by the default heap — pool-exhaustion fallbacks and halloc oversize
    requests — pay the default heap's release cost. *)
val free : t -> Dpc_gpu.Memory.buf -> int
