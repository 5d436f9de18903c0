(** The memory-hierarchy model — the single per-access accounting path.

    Every cost the simulator charges for a memory instruction lives in
    this module: coalesced 128-byte segment formation, the direct-mapped
    L2 filter, and the three config-gated deep-model features — shared-
    memory bank-conflict replay, the per-warp MSHR occupancy limit, and
    (via the counters {!Timing} prices) their cycle costs.  Both
    interpreter tiers (the reference walker in {!Interp} and the
    bytecode in {!Bytecode}) call these entry points, so the cost
    semantics cannot drift between tiers — the invariant the
    differential suite asserts byte-for-byte.

    Feature gating: a preset with [shared_banks = 0] and
    [mshr_per_warp = 0] (e.g. the default [k20c]) takes exactly the
    historical flat path — the new counters stay zero, the charge
    stream is untouched, and traces are byte-identical to releases
    before the deep model existed.

    Determinism: the model is trace-phase state.  Blocks execute
    sequentially within a session, and every tier calls {!block_start}
    at block entry, so per-warp MSHR occupancy evolves identically no
    matter which tier executes the block.  Replay and stall costs are
    recorded as separate segment counters ([bank_replays] /
    [mshr_stalls]) rather than folded into issue cycles, which keeps
    warp-efficiency semantics intact; {!Timing.seg_work} converts them
    to cycles using the config's per-event costs. *)

module Cfg = Dpc_gpu.Config

type t = {
  cfg : Cfg.t;
  l2_tags : int array;  (** direct-mapped L2 tag store (session lifetime) *)
  seg_shift : int;
      (** log2 [mem_segment_bytes] when that is a power of two, else -1 *)
  seen : int array;  (** segment-dedup scratch, length >= warp size *)
  seg_gen : int array;  (** per-slot generation stamps of the dedup table *)
  seg_slot : int array;  (** first segment stamped into each slot *)
  mutable acc_gen : int;  (** current generation of the dedup table *)
  banks : int;  (** shared-memory banks; 0 = unmodeled *)
  mshr : int;  (** per-warp outstanding budget; 0 = unlimited *)
  mshr_retire : int;
  mshr_out : int array;
      (** per-warp outstanding DRAM transactions, reset at block entry *)
  bank_gen : int array;  (** per-bank generation stamps *)
  bank_cnt : int array;  (** distinct words touched per bank *)
  word_gen : int array;  (** per-index broadcast-dedup stamps *)
  mutable gen : int;  (** current generation for the stamp scratch *)
}

(* The broadcast-dedup scratch is keyed by [index mod word_slots]; two
   distinct indices sharing a slot within one instruction fall back to
   a linear check of this instruction's indices, so the scratch size
   only affects speed, never the count. *)
let word_slots = 64

(* The segment-dedup table of {!account_access} is keyed by
   [segment land (seg_slots - 1)]; like the broadcast scratch, a slot
   collision falls back to a linear check, so its size only affects
   speed. *)
let seg_slots = 64

(* [log2 n] when [n] is a positive power of two, else -1. *)
let pow2_shift n =
  if n <= 0 || n land (n - 1) <> 0 then -1
  else begin
    let k = ref 0 in
    while 1 lsl !k < n do
      incr k
    done;
    !k
  end

let create (cfg : Cfg.t) =
  let nt = cfg.Cfg.l2_segments in
  {
    cfg;
    l2_tags = Array.make nt (-1);
    seg_shift = pow2_shift cfg.Cfg.mem_segment_bytes;
    seen = Array.make (Int.max 32 cfg.Cfg.warp_size) 0;
    seg_gen = Array.make seg_slots (-1);
    seg_slot = Array.make seg_slots 0;
    acc_gen = 0;
    banks = cfg.Cfg.shared_banks;
    mshr = cfg.Cfg.mshr_per_warp;
    mshr_retire = cfg.Cfg.mshr_retire_per_access;
    mshr_out = Array.make 64 0;
    bank_gen = Array.make (Int.max 1 cfg.Cfg.shared_banks) (-1);
    bank_cnt = Array.make (Int.max 1 cfg.Cfg.shared_banks) 0;
    word_gen = Array.make word_slots (-1);
    gen = 0;
  }

let cfg t = t.cfg

let l2_tags t = Array.copy t.l2_tags

(** Reset per-block state (MSHR occupancy).  Every tier calls this when
    a block starts executing, before any access is accounted. *)
let block_start t =
  if t.mshr > 0 then Array.fill t.mshr_out 0 (Array.length t.mshr_out) 0

(* --- global memory: coalescing, L2, MSHR ------------------------------- *)

(** Account one warp global-memory instruction: [addrs.(0..n-1)] are the
    byte addresses touched by active lanes.  Coalesce into distinct
    [mem_segment_bytes] segments, filter each through the direct-mapped
    L2 (hit -> [seg.l2], miss -> tag replace + [seg.dram]), then charge
    the warp's MSHR file for the new misses: outstanding transactions
    drain by [mshr_retire_per_access] per memory instruction, and any
    transaction issued past the [mshr_per_warp] budget counts one
    [seg.mshr_st] stall.

    Segments reach the L2 in the order of their first lane, exactly as
    a linear scan over the lanes would find them.  A lane repeats a
    segment when it equals the previous lane's (the common coalesced
    case) or when the generation-stamped slot table holds it; a slot
    already stamped by a different segment falls back to scanning this
    call's distinct segments, so the table never misjudges a lane.  On
    a non-negative address a power-of-two segment size turns the
    division into a shift with the same result; negative addresses keep
    OCaml's truncating [/]. *)
let account_access t ~(seg : Trace.seg_builder) ~warp (addrs : int array) n =
  let seg_bytes = t.cfg.Cfg.mem_segment_bytes in
  let shift = t.seg_shift in
  let l2_tags = t.l2_tags in
  let ntags = Array.length l2_tags in
  let seen = t.seen in
  let sgen = t.seg_gen in
  let sslot = t.seg_slot in
  t.acc_gen <- t.acc_gen + 1;
  let g = t.acc_gen in
  let nseen = ref 0 in
  let prev = ref 0 in
  let dram_before = seg.Trace.dram in
  for k = 0 to n - 1 do
    let a = addrs.(k) in
    let sg = if shift >= 0 && a >= 0 then a lsr shift else a / seg_bytes in
    let fresh =
      if k > 0 && sg = !prev then false
      else begin
        let s = sg land (seg_slots - 1) in
        if sgen.(s) <> g then begin
          sgen.(s) <- g;
          sslot.(s) <- sg;
          true
        end
        else if sslot.(s) = sg then false
        else begin
          (* slot collision: confirm against this call's segments *)
          let dup = ref false in
          let j = ref 0 in
          while (not !dup) && !j < !nseen do
            if seen.(!j) = sg then dup := true;
            incr j
          done;
          not !dup
        end
      end
    in
    prev := sg;
    if fresh then begin
      seen.(!nseen) <- sg;
      incr nseen;
      let idx = sg mod ntags in
      if l2_tags.(idx) = sg then seg.Trace.l2 <- seg.Trace.l2 + 1
      else begin
        l2_tags.(idx) <- sg;
        seg.Trace.dram <- seg.Trace.dram + 1
      end
    end
  done;
  if t.mshr > 0 then begin
    let w = warp land (Array.length t.mshr_out - 1) in
    let misses = seg.Trace.dram - dram_before in
    let out = Int.max 0 (t.mshr_out.(w) - t.mshr_retire) in
    let total = out + misses in
    if total > t.mshr then begin
      seg.Trace.mshr_st <- seg.Trace.mshr_st + (total - t.mshr);
      t.mshr_out.(w) <- t.mshr
    end
    else t.mshr_out.(w) <- total
  end

(* --- shared memory: bank conflicts ------------------------------------- *)

(* Count replays of one warp shared-memory instruction.  Identical
   indices broadcast (one access serves every requesting lane); the
   remaining distinct words map to banks by [index mod banks], and the
   instruction replays once per extra distinct word on its most-loaded
   bank.  Generation stamps make the scratch reset O(1) per call. *)
let count_replays t (idxs : int array) n =
  t.gen <- t.gen + 1;
  let g = t.gen in
  let maxb = ref 1 in
  for k = 0 to n - 1 do
    let i = idxs.(k) in
    (* broadcast dedup: an index equal to an earlier lane's is free *)
    let slot = i mod word_slots in
    let fresh =
      if t.word_gen.(slot) <> g then begin
        t.word_gen.(slot) <- g;
        true
      end
      else begin
        (* slot collision: confirm against this instruction's lanes *)
        let dup = ref false in
        let j = ref 0 in
        while (not !dup) && !j < k do
          if idxs.(!j) = i then dup := true;
          incr j
        done;
        not !dup
      end
    in
    if fresh then begin
      let b = i mod t.banks in
      let c = if t.bank_gen.(b) = g then t.bank_cnt.(b) + 1 else 1 in
      t.bank_gen.(b) <- g;
      t.bank_cnt.(b) <- c;
      if c > !maxb then maxb := c
    end
  done;
  !maxb - 1

(** Account one warp shared-memory instruction: [idxs.(0..n-1)] are the
    word indices touched by active lanes.  No-op unless the config
    models banks ([shared_banks > 0]); otherwise the access replays
    once per extra distinct word on its most-loaded bank, counted into
    [seg.bank_rp]. *)
let account_shared t ~(seg : Trace.seg_builder) (idxs : int array) n =
  if t.banks > 0 && n > 0 then begin
    let r = count_replays t idxs n in
    if r > 0 then seg.Trace.bank_rp <- seg.Trace.bank_rp + r
  end
