(** The memory-hierarchy model — the single per-access accounting path.

    Owns every cost the simulator charges for a memory instruction:
    coalesced segment formation, the direct-mapped L2 filter, and the
    config-gated deep-model features (shared-memory bank-conflict
    replay, the per-warp MSHR occupancy limit).  Both interpreter tiers
    call these entry points — there is deliberately no other
    accounting implementation in the tree, so the tiers cannot drift.

    With the features off ([shared_banks = 0], [mshr_per_warp = 0] —
    the default [k20c] preset) the model is exactly the historical flat
    path: the new counters stay zero and traces are byte-identical.
    Replay/stall costs are separate {!Trace} counters priced by
    {!Timing.seg_work}, never folded into issue cycles. *)

type t

(** Fresh model state for one interpreter session: L2 tags, dedup
    scratch and per-warp MSHR occupancy.  Session-lifetime, single
    domain — blocks execute sequentially against it. *)
val create : Dpc_gpu.Config.t -> t

val cfg : t -> Dpc_gpu.Config.t

(** A copy of the direct-mapped L2 tag store: slot [i] holds the segment
    number cached there, or [-1].  For tests and inspection. *)
val l2_tags : t -> int array

(** Reset per-block state (MSHR occupancy).  Every tier calls this when
    a block starts executing, before any access is accounted. *)
val block_start : t -> unit

(** [account_access t ~seg ~warp addrs n] accounts one warp global-
    memory instruction: [addrs.(0..n-1)] are the byte addresses touched
    by active lanes.  Coalesces into distinct [mem_segment_bytes]
    segments, runs each through the L2 model (hit -> [seg.l2], miss ->
    tag replace + [seg.dram]), then charges warp [warp]'s MSHR file for
    the new misses when the budget is enabled (overflow -> one
    [seg.mshr_st] stall per transaction past the budget). *)
val account_access :
  t -> seg:Trace.seg_builder -> warp:int -> int array -> int -> unit

(** [account_shared t ~seg idxs n] accounts one warp shared-memory
    instruction: [idxs.(0..n-1)] are the word indices touched by active
    lanes.  No-op unless [shared_banks > 0]; otherwise identical
    indices broadcast and the instruction replays once per extra
    distinct word on its most-loaded bank, counted into
    [seg.bank_rp]. *)
val account_shared : t -> seg:Trace.seg_builder -> int array -> int -> unit
