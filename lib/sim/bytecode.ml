(** The lowered interpreter tier: finalized kernels flattened to dense
    arrays of int-coded instructions over unboxed int/float register
    planes, executed by a tight dispatch loop with warp-wide inner loops.
    The reference walker in {!Interp} is the only other tier.

    Design:

    - {b Registers.}  Frame slots proven monomorphic by
      {!Dpc_kir.Typing} live in raw [int array] / [float array] lanes of
      a per-warp register plane (buffer handles are ints); a kernel with
      a slot the inference could not type runs on the walker.  An operand
      is a single int [r]: [r >= tmp_base] indexes the program's private
      temp plane, [0 <= r < tmp_base] a warp register row, [r < 0] the
      32-wide constant pool.  Int and float spaces are separate; the
      kind travels in the lowering, never at run time.
    - {b Superinstructions.}  Straight-line arithmetic / conversion /
      move ops are fused at lowering time into one [FUSE] group charged
      once ([charge k n] is exactly [k] unit charges under the same
      mask: the lane-cycle accumulator is an integer)
      and executed op-major: one dispatch per fused op, then a tight
      counted loop over the active lanes.  Quads run in program order,
      so per-lane dataflow is the same as lane-major execution; a group
      may carry raising ops (integer division / modulo) of at most one
      kind so the abort message stays identical under reorder.
    - {b Statement filters.}  The per-statement mask re-filter
      ([mask land lnot returned]) is emitted as a [FILTER] op only when
      something since the previous filter could have changed
      [returned]; runs of pure ops fuse across statement boundaries.
    - {b Native statements.}  Every statement kind lowers to stream ops:
      arithmetic, loads/stores, shared memory, structured control,
      atomics on int and float buffers, device mallocs, reads of shared
      arrays that provably hold only numbers, and the device runtime
      itself — [LAUNCH], [DEVSYNC] and [FREE], with the walker's
      charges, DRAM transactions, segment cuts and pending-launch
      order.
    - {b Block-uniform segments.}  A barrier and the [if]/[while]/[for]
      around it run under one per-block driver; each uniform condition
      or loop bound is its own small program, run on every live warp,
      whose lanes must agree.
    - {b Fallback.}  A construct with no native form — any boxed slot,
      boxed or type-mixed operands, a barrier outside block-uniform code,
      [any]-element atomics — raises {!Not_compilable} at lowering time
      and the whole kernel runs on the reference walker.

    Charge-for-charge equivalence with the walker (trace, metrics,
    float accumulation order and error text) is proven by the
    differential suite. *)

module A = Dpc_kir.Ast
module V = Dpc_kir.Value
module K = Dpc_kir.Kernel
module Ty = Dpc_kir.Typing
module Mem = Dpc_gpu.Memory
module Cfg = Dpc_gpu.Config
module Alloc = Dpc_alloc.Allocator
module Vec = Dpc_util.Vec
module R = Runtime

let err = R.err

exception Not_compilable

(* --- register plane and block context ------------------------------------ *)

type storage = Si of int | Sf of int

(* A warp's register plane outlives its block: {!exec_block} takes the
   warp from its kernel's free list and returns it at block end, so the
   geometry fields are rebound on every reuse. *)
type warp = {
  mutable widx : int;
  mutable base_lane : int;  (** threadIdx.x of lane 0 *)
  mutable nlanes : int;  (** threads in this warp (last warp may be partial) *)
  ints : int array array;  (** indexed [row].[lane] *)
  flts : float array array;
  mutable returned : int;  (** bitmask of lanes that executed [return] *)
}

(* The session-side runtime a block reaches back into: [flush_deep] runs
   a pending launch immediately (deep drain at [cudaDeviceSynchronize]),
   [enqueue] defers it to the session's breadth-order queue,
   [add_alloc_cycles] accumulates allocator cycles on the session. *)
type host = {
  flush_deep : R.pending_launch -> unit;
  enqueue : R.pending_launch -> unit;
  add_alloc_cycles : int -> unit;
}

let full_mask w = (1 lsl w.nlanes) - 1

let live_mask w = full_mask w land lnot w.returned

type cctx = {
  cfg : Cfg.t;
  mem : Mem.t;
  alloc : Alloc.t;
  mm : Memmodel.t;
  gid : int;
  grid_dim : int;
  block_dim : int;
  depth : int;
  block_idx : int;
  shared : V.t array array;  (** by shared-decl index *)
  warps : warp array;
  seg : Trace.seg_builder;
  block_mallocs : V.t option array;  (** by Malloc site *)
  grid_mallocs : V.t option array;
  grid_alloc_count : int ref;
  pending : R.pending_launch Vec.t;
  deep : bool;
  host : host;
}

(* Local copies of the hot {!Runtime} primitives.  flambda is off, so a
   cross-module call never inlines, and the dispatch loop pays these
   millions of times per run; the bodies are bit-identical to
   [R.lowest_bit] / [R.popcount]. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] lb m =
  Array.unsafe_get debruijn ((((m land -m) * 0x077CB531) lsr 27) land 31)

let[@inline] pc x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (x * 0x01010101) lsr 24 land 0xff

(* [chg c cycles m] = [R.charge c.seg cycles (popcount m)], inlined. *)
let[@inline] chg (c : cctx) cycles m =
  let seg = c.seg in
  seg.Trace.issue <- seg.Trace.issue + cycles;
  seg.Trace.lane_cycles <- seg.Trace.lane_cycles + (cycles * pc m)

(* Memory-access accounting is NOT inlined: every global access goes
   through {!Memmodel.account_access} (and shared accesses through
   {!Memmodel.account_shared}) so the cost semantics live in exactly one
   place for both tiers. *)
let account c (w : warp) addrs n =
  Memmodel.account_access c.mm ~seg:c.seg ~warp:w.widx addrs n

let account_shared c idxs n = Memmodel.account_shared c.mm ~seg:c.seg idxs n

(* Lowering-time environment of one kernel. *)
type env = {
  kname : string;
  slots : Ty.slot_ty array;
  storage : storage array;
  shindex : (string, int) Hashtbl.t;  (** shared name -> decl index *)
  shtys : Ty.sh_ty array;
  shnum : bool array;
      (** shared arrays that only ever hold numbers (see
          {!numeric_shared}) *)
  nsites : int;  (** [Malloc] sites of the kernel *)
}

(* One [Malloc] of [n_elems] elements under [mask], with the walker's
   allocator call order, [grid_alloc_count] contention, segment alloc_*
   fields and per-site block/grid caches.  A per-warp malloc always
   allocates; per-block and per-grid ones allocate once per site and
   charge a 2-cycle cache hit afterwards. *)
let malloc_value c ~kname ~site scope ~mask n_elems : V.t =
  let fresh () =
    let name = Printf.sprintf "%s#m%d@g%d" kname site c.gid in
    let contention = !(c.grid_alloc_count) in
    incr c.grid_alloc_count;
    let fallbacks_before = Alloc.pool_fallbacks c.alloc in
    let buf, cost =
      Alloc.alloc ~contention c.alloc c.mem ~name ~count:n_elems
    in
    c.host.add_alloc_cycles cost;
    c.seg.Trace.allocs <- c.seg.Trace.allocs + 1;
    c.seg.Trace.alloc_fb <-
      c.seg.Trace.alloc_fb
      + (Alloc.pool_fallbacks c.alloc - fallbacks_before);
    c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
    R.charge c.seg cost 1;
    V.Vbuf buf.Mem.id
  in
  let cached cache =
    match cache.(site) with
    | Some v ->
      chg c 2 mask;
      v
    | None ->
      let v = fresh () in
      cache.(site) <- Some v;
      v
  in
  match (scope : A.alloc_scope) with
  | A.Per_warp -> fresh ()
  | A.Per_block -> cached c.block_mallocs
  | A.Per_grid -> cached c.grid_mallocs

(* Register encoding split point. *)
let tmpb = 0x400000

let temp_base = tmpb

(* --- opcode tables -------------------------------------------------------

   Stream ops (operand counts include the opcode itself):
     0 FILTER                       1
     1 RET                          1
     2 LAUNCH nm gk g bk b n        7+2n then n pairs [ak; a]: callee name
          (ak a)*n                          id; grid/block kind 0 int / 1
                                        float (coerced per lane); arg kind
                                        0 int / 1 float / 2 buffer
     3 IF kind row elsep endp       5   then [pc+5,elsep) else [elsep,endp)
     4 WHILE testp endp             3   cond [pc+3,testp), testp: kind row,
                                        body [testp+2,endp)
     5 FOR var lo hi testp endp     6   hi code [pc+6,testp), body
                                        [testp,endp)
     6 ANDOR isand d ak ar bk br be 8   b code [pc+8,be)
     7 FUSE n ch quads              3+4n
     8 LOADI b i d                  4
     9 LOADF b i d                  4
    10 STOREI b i x                 4
    11 STOREF b i x                 4
    12 BUFLEN b d                   3
    13 SHLOAD i d sh nm             5
    14 SHSTORE kind i x sh nm       6
    15 ATOMIC kind op b i o c dk d   9   kind 0 int / 1 float buffer; op
                                        0 add 1 min 2 max 3 exch 4 cas
                                        (c read for cas only); dk 0 no
                                        old / 1 old into row d
    16 MALLOC scope site n d        5   scope 0 warp / 1 block / 2 grid;
                                        n read at the lowest active lane;
                                        handle into int row d
    17 SHLOADN i d sh nm            5   boxed read of a numeric shared
                                        array, coerced to float
    18 DEVSYNC                      1   drain pending launches (deep)
    19 FREE b                       2   frees the lowest active lane's
                                        buffer

   Fused sub-ops, one quad [op; a; b; d] each:
     0..11  IADD ISUB IMUL IDIV IMOD IMIN IMAX ISHL ISHR IAND IOR IXOR
     12..17 IEQ INE ILT ILE IGT IGE
     18..23 FADD FSUB FMUL FDIV FMIN FMAX
     24..29 FEQ FNE FLT FLE FGT FGE
     30 INEG  31 FNEG  32 INOT  33 FNOT
     34 I2F   35 F2I   36 I2F_FREE  37 F2I_FREE   (36/37 charge nothing)
     38 MOVI  39 MOVF  40 CHARGE1   41 SPECIAL (a = special kind)
*)

(* --- lowered program ------------------------------------------------------ *)

type bprog = {
  code : int array;
  ci : int array array;  (** int constant pool, 32-wide rows *)
  cf : float array array;
  tmpi : int array array;  (** temp planes, 32-wide rows *)
  tmpf : float array array;
  names : string array;
      (** interned names: shared arrays (error messages), launch callees *)
  kname : string;
  lanes : int array;  (** FUSE active-lane list scratch (divergent masks) *)
  addrs : int array;  (** memory-op coalescing scratch *)
}

(** The marshal-safe image of one lowered program: the instruction
    stream plus every bound its operands can be checked against.  This
    is what the static bytecode verifier ({!Dpc_check.Bcverify})
    consumes — [bprog] itself holds live scratch. *)
type stream = {
  s_kname : string;
  s_code : int array;
  s_nic : int;  (** int constant-pool rows *)
  s_nfc : int;  (** float constant-pool rows *)
  s_ntmpi : int;  (** int temp-plane rows *)
  s_ntmpf : int;  (** float temp-plane rows *)
  s_nint : int;  (** warp int-plane rows (buffer handles included) *)
  s_nflt : int;  (** warp float-plane rows *)
  s_nsites : int;  (** the kernel's [Malloc] sites *)
  s_nshared : int;  (** shared arrays in scope *)
  s_nnames : int;  (** interned name ids *)
  s_result : (int * int) option;
      (** a uniform-condition program's value: kind (0 int / 1 float /
          2 buffer) and register; [None] for a statement run *)
}

(* Lane list for a full mask: the identity, shared by every program. *)
let lane_id = Array.init 32 Fun.id

let[@inline] row_i bp (w : warp) r =
  if r >= tmpb then bp.tmpi.(r - tmpb)
  else if r >= 0 then w.ints.(r)
  else bp.ci.(-r - 1)

let[@inline] row_f bp (w : warp) r =
  if r >= tmpb then bp.tmpf.(r - tmpb)
  else if r >= 0 then w.flts.(r)
  else bp.cf.(-r - 1)

(* Truth scan of a register row under [m]; the caller charges.  Rows are
   always 32 wide and lanes < 32, so unchecked indexing is safe. *)
let scan bp w kind row m =
  let mt = ref 0 in
  if kind = 0 then begin
    let a = row_i bp w row in
    let mm = ref m in
    while !mm <> 0 do
      let l = lb !mm in
      if Array.unsafe_get a l <> 0 then mt := !mt lor (1 lsl l);
      mm := !mm land (!mm - 1)
    done
  end
  else begin
    let a = row_f bp w row in
    let mm = ref m in
    while !mm <> 0 do
      let l = lb !mm in
      if Array.unsafe_get a l <> 0.0 then mt := !mt lor (1 lsl l);
      mm := !mm land (!mm - 1)
    done
  end;
  !mt

let fill_i (dst : int array) m v =
  let mm = ref m in
  while !mm <> 0 do
    let l = lb !mm in
    Array.unsafe_set dst l v;
    mm := !mm land (!mm - 1)
  done

(* --- execution ------------------------------------------------------------ *)

(* Execute one FUSE group op-major: dispatch once per quad, then run a
   tight loop over the active-lane list.  Quads run in program order, so
   per-lane dataflow — including temp-row reuse across fused statements
   — is exactly what lane-major order computes; and because a group
   carries raising ops (integer division / modulo) of at most one kind,
   reordering lanes against quads cannot change which abort message
   fires.  The lane list costs one extra indexed load per lane but lets
   every sub-op run as a branch-free counted loop. *)
let exec_fuse bp c (w : warp) (code : int array) p m =
  let n = code.(p + 1) in
  let ch = code.(p + 2) in
  if ch > 0 then chg c ch m;
  let lanes, nact =
    if m = (1 lsl w.nlanes) - 1 then (lane_id, w.nlanes)
    else begin
      let s = bp.lanes in
      let k = ref 0 in
      let mm = ref m in
      while !mm <> 0 do
        Array.unsafe_set s !k (lb !mm);
        incr k;
        mm := !mm land (!mm - 1)
      done;
      (s, !k)
    end
  in
  let base = p + 3 in
  for j = 0 to n - 1 do
    let q = base + (4 * j) in
    match Array.unsafe_get code q with
    | 0 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l + Array.unsafe_get b l)
      done
    | 1 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l - Array.unsafe_get b l)
      done
    | 2 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l * Array.unsafe_get b l)
      done
    | 3 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        let dv = Array.unsafe_get b l in
        if dv = 0 then err "integer division by zero";
        Array.unsafe_set d l (Array.unsafe_get a l / dv)
      done
    | 4 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        let dv = Array.unsafe_get b l in
        if dv = 0 then err "integer modulo by zero";
        Array.unsafe_set d l (Array.unsafe_get a l mod dv)
      done
    | 5 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Int.min (Array.unsafe_get a l) (Array.unsafe_get b l))
      done
    | 6 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Int.max (Array.unsafe_get a l) (Array.unsafe_get b l))
      done
    | 7 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Array.unsafe_get a l lsl Array.unsafe_get b l)
      done
    | 8 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Array.unsafe_get a l asr Array.unsafe_get b l)
      done
    | 9 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Array.unsafe_get a l land Array.unsafe_get b l)
      done
    | 10 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Array.unsafe_get a l lor Array.unsafe_get b l)
      done
    | 11 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Array.unsafe_get a l lxor Array.unsafe_get b l)
      done
    | 12 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l = Array.unsafe_get b l then 1 else 0)
      done
    | 13 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l <> Array.unsafe_get b l then 1 else 0)
      done
    | 14 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l < Array.unsafe_get b l then 1 else 0)
      done
    | 15 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l <= Array.unsafe_get b l then 1 else 0)
      done
    | 16 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l > Array.unsafe_get b l then 1 else 0)
      done
    | 17 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let b = row_i bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l >= Array.unsafe_get b l then 1 else 0)
      done
    | 18 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l +. Array.unsafe_get b l)
      done
    | 19 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l -. Array.unsafe_get b l)
      done
    | 20 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l *. Array.unsafe_get b l)
      done
    | 21 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l /. Array.unsafe_get b l)
      done
    | 22 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Float.min (Array.unsafe_get a l) (Array.unsafe_get b l))
      done
    | 23 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (Float.max (Array.unsafe_get a l) (Array.unsafe_get b l))
      done
    | 24 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l = Array.unsafe_get b l then 1 else 0)
      done
    | 25 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l <> Array.unsafe_get b l then 1 else 0)
      done
    | 26 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l < Array.unsafe_get b l then 1 else 0)
      done
    | 27 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l <= Array.unsafe_get b l then 1 else 0)
      done
    | 28 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l > Array.unsafe_get b l then 1 else 0)
      done
    | 29 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let b = row_f bp w (Array.unsafe_get code (q + 2)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l
          (if Array.unsafe_get a l >= Array.unsafe_get b l then 1 else 0)
      done
    | 30 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (-Array.unsafe_get a l)
      done
    | 31 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (-.Array.unsafe_get a l)
      done
    | 32 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (if Array.unsafe_get a l <> 0 then 0 else 1)
      done
    | 33 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (if Array.unsafe_get a l <> 0.0 then 0 else 1)
      done
    | 34 | 36 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Float.of_int (Array.unsafe_get a l))
      done
    | 35 | 37 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Float.to_int (Array.unsafe_get a l))
      done
    | 38 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l)
      done
    | 39 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let d = row_f bp w (Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (Array.unsafe_get a l)
      done
    | 40 -> ()
    | _ ->
      (* 41 SPECIAL *)
      let arg = Array.unsafe_get code (q + 1) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      if arg = 0 then
        for t = 0 to nact - 1 do
          let l = Array.unsafe_get lanes t in
          Array.unsafe_set d l (w.base_lane + l)
        done
      else if arg = 4 then
        for t = 0 to nact - 1 do
          let l = Array.unsafe_get lanes t in
          Array.unsafe_set d l l
        done
      else begin
        let v =
          match arg with
          | 1 -> c.block_idx
          | 2 -> c.block_dim
          | 3 -> c.grid_dim
          | 5 -> w.widx
          | _ -> c.cfg.Cfg.warp_size
        in
        for t = 0 to nact - 1 do
          Array.unsafe_set d (Array.unsafe_get lanes t) v
        done
      end
  done

(* One warp atomic (ATOMIC), lane by lane in mask order, exactly as the
   walker: charge [atomic_cycles * n], then per lane read-modify-write
   the element and record its address, then one {!account}.  Payload
   arrays are touched directly when the index is in range; otherwise the
   read goes through [Mem], which raises the identical Out_of_bounds
   (the write then reuses the checked index).
   The [old] value is written per lane straight into its row: a lane
   reads only its own operand lanes, and a raise aborts the launch, so
   nothing can observe the difference from a post-loop copy. *)
let exec_atomic bp c (w : warp) (code : int array) p m =
  let op = code.(p + 2) in
  let ids = row_i bp w code.(p + 3) in
  let ii = row_i bp w code.(p + 4) in
  let dk = code.(p + 7) in
  let n = pc m in
  chg c (c.cfg.Cfg.atomic_cycles * n) m;
  let addrs = bp.addrs in
  let k = ref 0 in
  let mm = ref m in
  let b = ref (Mem.get_buf c.mem (Array.unsafe_get ids (lb m))) in
  if code.(p + 1) = 0 then begin
    let oi = row_i bp w code.(p + 5) in
    let ci = if op = 4 then row_i bp w code.(p + 6) else oi in
    let di = if dk = 1 then row_i bp w code.(p + 8) else oi in
    while !mm <> 0 do
      let l = lb !mm in
      let id = Array.unsafe_get ids l in
      let bf =
        let bf = !b in
        if id = bf.Mem.id then bf
        else begin
          let nb = Mem.get_buf c.mem id in
          b := nb;
          nb
        end
      in
      let idx = Array.unsafe_get ii l in
      let old =
        match bf.Mem.data with
        | Mem.I a when idx >= 0 && idx < Array.length a ->
          Array.unsafe_get a idx
        | _ -> Mem.read_int bf idx
      in
      let o = Array.unsafe_get oi l in
      let nv =
        match op with
        | 0 -> old + o
        | 1 -> Int.min old o
        | 2 -> Int.max old o
        | 3 -> o
        | _ -> if old = Array.unsafe_get ci l then o else old
      in
      (* [old] came through the bounds check, so [idx >= 0]; an index past
         the physical array is a buffer not yet written. *)
      (match bf.Mem.data with
      | Mem.I a when idx < Array.length a -> Array.unsafe_set a idx nv
      | Mem.F a when idx < Array.length a ->
        Array.unsafe_set a idx (Float.of_int nv)
      | _ -> Mem.write_int bf idx nv);
      if dk = 1 then Array.unsafe_set di l old;
      Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
      incr k;
      mm := !mm land (!mm - 1)
    done
  end
  else begin
    let oi = row_f bp w code.(p + 5) in
    let ci = if op = 4 then row_i bp w code.(p + 6) else ii in
    let df = if dk = 1 then row_f bp w code.(p + 8) else oi in
    while !mm <> 0 do
      let l = lb !mm in
      let id = Array.unsafe_get ids l in
      let bf =
        let bf = !b in
        if id = bf.Mem.id then bf
        else begin
          let nb = Mem.get_buf c.mem id in
          b := nb;
          nb
        end
      in
      let idx = Array.unsafe_get ii l in
      let old =
        match bf.Mem.data with
        | Mem.F a when idx >= 0 && idx < Array.length a ->
          Array.unsafe_get a idx
        | _ -> Mem.read_float bf idx
      in
      let o = Array.unsafe_get oi l in
      let nv =
        match op with
        | 0 -> old +. o
        | 1 -> Float.min old o
        | 2 -> Float.max old o
        | 3 -> o
        | _ -> if Float.to_int old = Array.unsafe_get ci l then o else old
      in
      (match bf.Mem.data with
      | Mem.F a when idx < Array.length a -> Array.unsafe_set a idx nv
      | Mem.I a when idx < Array.length a ->
        Array.unsafe_set a idx (Float.to_int nv)
      | _ -> Mem.write_float bf idx nv);
      if dk = 1 then Array.unsafe_set df l old;
      Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
      incr k;
      mm := !mm land (!mm - 1)
    done
  end;
  account c w addrs !k

(* One warp's device-side launches (LAUNCH), lane by lane in mask order
   as the walker records them: each lane's grid/block dimensions and
   boxed arguments, [launch_issue_cycles] and the launch's DRAM
   transactions, one pending launch per lane (run later, at a
   [cudaDeviceSynchronize] or block end), then a [Seg_launch] cut whose
   id slots the children patch when they execute. *)
let exec_launch bp c (w : warp) (code : int array) p m =
  let callee = bp.names.(code.(p + 1)) in
  let grid_k = code.(p + 2) and grid_r = code.(p + 3) in
  let block_k = code.(p + 4) and block_r = code.(p + 5) in
  let nargs = code.(p + 6) in
  let dim kind r l =
    if kind = 0 then (row_i bp w r).(l) else Float.to_int (row_f bp w r).(l)
  in
  let arg j l =
    let r = code.(p + 8 + (2 * j)) in
    match code.(p + 7 + (2 * j)) with
    | 0 -> V.Vint (row_i bp w r).(l)
    | 1 -> V.Vfloat (row_f bp w r).(l)
    | _ -> V.Vbuf (row_i bp w r).(l)
  in
  let cfg = c.cfg in
  let ids = Array.make (pc m) (-1) in
  let k = ref 0 in
  let mm = ref m in
  while !mm <> 0 do
    let l = lb !mm in
    let pl_grid = dim grid_k grid_r l in
    let pl_block = dim block_k block_r l in
    let pl_args = List.init nargs (fun j -> arg j l) in
    R.charge c.seg cfg.Cfg.launch_issue_cycles 1;
    c.seg.Trace.dram <- c.seg.Trace.dram + cfg.Cfg.launch_dram_transactions;
    Vec.push c.pending
      { R.pl_callee = callee; pl_grid; pl_block; pl_args; pl_ids = ids;
        pl_slot = !k; pl_parent = (c.gid, c.block_idx);
        pl_depth = c.depth + 1 };
    incr k;
    mm := !mm land (!mm - 1)
  done;
  Trace.cut c.seg (Trace.Seg_launch ids)

(* The dispatch loop: one region [pc0, stop) of one warp under region
   mask [rmask].  Control flow recurses with freshly scanned sub-masks,
   exactly like the walker. *)
let rec exec bp c (w : warp) pc0 stop rmask =
  let code = bp.code in
  let cur = ref rmask in
  let p = ref pc0 in
  while !p < stop do
    match Array.unsafe_get code !p with
    | 0 ->
      (* FILTER *)
      cur := rmask land lnot w.returned;
      if !cur = 0 then p := stop else incr p
    | 1 ->
      (* RET *)
      w.returned <- w.returned lor !cur;
      incr p
    | 2 ->
      exec_launch bp c w code !p !cur;
      p := !p + 7 + (2 * code.(!p + 6))
    | 3 ->
      (* IF *)
      let q = !p in
      let m = !cur in
      chg c 1 m;
      let mt = scan bp w code.(q + 1) code.(q + 2) m in
      let mf = m land lnot mt in
      let elsep = code.(q + 3) in
      let endp = code.(q + 4) in
      if mt <> 0 then exec bp c w (q + 5) elsep mt;
      if mf <> 0 then exec bp c w elsep endp mf;
      p := endp
    | 4 ->
      (* WHILE *)
      let q = !p in
      let testp = code.(q + 1) in
      let endp = code.(q + 2) in
      let cm = ref !cur in
      let running = ref true in
      while !running do
        let m0 = !cm land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          exec bp c w (q + 3) testp m0;
          chg c 1 m0;
          let mt = scan bp w code.(testp) code.(testp + 1) m0 in
          if mt = 0 then running := false
          else begin
            exec bp c w (testp + 2) endp mt;
            cm := mt
          end
        end
      done;
      p := endp
    | 5 ->
      (* FOR *)
      let q = !p in
      let var = w.ints.(code.(q + 1)) in
      let lo = row_i bp w code.(q + 2) in
      let testp = code.(q + 4) in
      let endp = code.(q + 5) in
      let m = !cur in
      chg c 1 m;
      let mm = ref m in
      while !mm <> 0 do
        let l = lb !mm in
        Array.unsafe_set var l (Array.unsafe_get lo l);
        mm := !mm land (!mm - 1)
      done;
      let cm = ref m in
      let running = ref true in
      while !running do
        let m0 = !cm land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          exec bp c w (q + 6) testp m0;
          chg c 1 m0;
          let hi = row_i bp w code.(q + 3) in
          let mt = ref 0 in
          let mm = ref m0 in
          while !mm <> 0 do
            let l = lb !mm in
            if Array.unsafe_get var l < Array.unsafe_get hi l then
              mt := !mt lor (1 lsl l);
            mm := !mm land (!mm - 1)
          done;
          if !mt = 0 then running := false
          else begin
            let m_true = !mt in
            exec bp c w testp endp m_true;
            chg c 1 m_true;
            let mm = ref m_true in
            while !mm <> 0 do
              let l = lb !mm in
              Array.unsafe_set var l (Array.unsafe_get var l + 1);
              mm := !mm land (!mm - 1)
            done;
            cm := m_true
          end
        end
      done;
      p := endp
    | 6 ->
      (* ANDOR: a's code already ran; charge is the a-side truth's *)
      let q = !p in
      let m = !cur in
      chg c 1 m;
      let is_and = code.(q + 1) = 1 in
      let di = row_i bp w code.(q + 2) in
      let mt_a = scan bp w code.(q + 3) code.(q + 4) m in
      let bend = code.(q + 7) in
      fill_i di m (if is_and then 0 else 1);
      let sub = if is_and then mt_a else m land lnot mt_a in
      if sub <> 0 then begin
        exec bp c w (q + 8) bend sub;
        let mt_b = scan bp w code.(q + 5) code.(q + 6) sub in
        let flip = if is_and then mt_b else sub land lnot mt_b in
        fill_i di flip (if is_and then 1 else 0)
      end;
      p := bend
    | 7 ->
      (* FUSE *)
      exec_fuse bp c w code !p !cur;
      p := !p + 3 + (4 * code.(!p + 1))
    | 8 ->
      (* LOADI *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let di = row_i bp w code.(q + 3) in
      let m = !cur in
      chg c c.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      (* Cache the handle across lanes (loads are usually same-buffer)
         and read the payload array directly; the bounds-failure path
         re-reads through [Mem] so the raise is identical. *)
      let b = ref (Mem.get_buf c.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.mem id in
            b := nb;
            nb
          end
        in
        let idx = Array.unsafe_get ii l in
        (match bf.Mem.data with
        | Mem.I a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set di l (Array.unsafe_get a idx)
          else Array.unsafe_set di l (Mem.read_int bf idx)
        | Mem.F a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set di l (Float.to_int (Array.unsafe_get a idx))
          else Array.unsafe_set di l (Mem.read_int bf idx));
        Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
        incr k;
        mm := !mm land (!mm - 1)
      done;
      account c w addrs !k;
      p := q + 4
    | 9 ->
      (* LOADF *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let df = row_f bp w code.(q + 3) in
      let m = !cur in
      chg c c.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.mem id in
            b := nb;
            nb
          end
        in
        let idx = Array.unsafe_get ii l in
        (match bf.Mem.data with
        | Mem.F a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set df l (Array.unsafe_get a idx)
          else Array.unsafe_set df l (Mem.read_float bf idx)
        | Mem.I a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set df l (Float.of_int (Array.unsafe_get a idx))
          else Array.unsafe_set df l (Mem.read_float bf idx));
        Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
        incr k;
        mm := !mm land (!mm - 1)
      done;
      account c w addrs !k;
      p := q + 4
    | 10 ->
      (* STOREI *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let xi = row_i bp w code.(q + 3) in
      let m = !cur in
      chg c c.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.mem id in
            b := nb;
            nb
          end
        in
        let idx = Array.unsafe_get ii l in
        let x = Array.unsafe_get xi l in
        (match bf.Mem.data with
        | Mem.I a ->
          if idx >= 0 && idx < Array.length a then Array.unsafe_set a idx x
          else Mem.write_int bf idx x
        | Mem.F a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set a idx (Float.of_int x)
          else Mem.write_int bf idx x);
        Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
        incr k;
        mm := !mm land (!mm - 1)
      done;
      account c w addrs !k;
      p := q + 4
    | 11 ->
      (* STOREF *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let xf = row_f bp w code.(q + 3) in
      let m = !cur in
      chg c c.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.mem id in
            b := nb;
            nb
          end
        in
        let idx = Array.unsafe_get ii l in
        let x = Array.unsafe_get xf l in
        (match bf.Mem.data with
        | Mem.F a ->
          if idx >= 0 && idx < Array.length a then Array.unsafe_set a idx x
          else Mem.write_float bf idx x
        | Mem.I a ->
          if idx >= 0 && idx < Array.length a then
            Array.unsafe_set a idx (Float.to_int x)
          else Mem.write_float bf idx x);
        Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
        incr k;
        mm := !mm land (!mm - 1)
      done;
      account c w addrs !k;
      p := q + 4
    | 12 ->
      (* BUFLEN *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let di = row_i bp w code.(q + 2) in
      let m = !cur in
      chg c 1 m;
      let mm = ref m in
      while !mm <> 0 do
        let l = lb !mm in
        di.(l) <- Mem.buf_length (Mem.get_buf c.mem ids.(l));
        mm := !mm land (!mm - 1)
      done;
      p := q + 3
    | 13 ->
      (* SHLOAD *)
      let q = !p in
      let ii = row_i bp w code.(q + 1) in
      let di = row_i bp w code.(q + 2) in
      let arr = c.shared.(code.(q + 3)) in
      let name = bp.names.(code.(q + 4)) in
      let m = !cur in
      chg c 1 m;
      let idxs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      while !mm <> 0 do
        let l = lb !mm in
        let i = ii.(l) in
        if i < 0 || i >= Array.length arr then
          err "kernel %s: shared array %s[%d] out of bounds (size %d)"
            bp.kname name i (Array.length arr);
        Array.unsafe_set idxs !k i;
        incr k;
        di.(l) <- V.as_int arr.(i);
        mm := !mm land (!mm - 1)
      done;
      account_shared c idxs !k;
      p := q + 5
    | 14 ->
      (* SHSTORE *)
      let q = !p in
      let kind = code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let arr = c.shared.(code.(q + 4)) in
      let name = bp.names.(code.(q + 5)) in
      let m = !cur in
      chg c 1 m;
      let oob i =
        err "kernel %s: shared array %s[%d] out of bounds (size %d)"
          bp.kname name i (Array.length arr)
      in
      let idxs = bp.addrs in
      let k = ref 0 in
      (if kind = 1 then begin
         let xf = row_f bp w code.(q + 3) in
         let mm = ref m in
         while !mm <> 0 do
           let l = lb !mm in
           let i = ii.(l) in
           if i < 0 || i >= Array.length arr then oob i;
           Array.unsafe_set idxs !k i;
           incr k;
           arr.(i) <- V.Vfloat xf.(l);
           mm := !mm land (!mm - 1)
         done
       end
       else begin
         let xi = row_i bp w code.(q + 3) in
         let box = if kind = 0 then fun x -> V.Vint x else fun x -> V.Vbuf x in
         let mm = ref m in
         while !mm <> 0 do
           let l = lb !mm in
           let i = ii.(l) in
           if i < 0 || i >= Array.length arr then oob i;
           Array.unsafe_set idxs !k i;
           incr k;
           arr.(i) <- box xi.(l);
           mm := !mm land (!mm - 1)
         done
       end);
      account_shared c idxs !k;
      p := q + 6
    | 15 ->
      (* ATOMIC *)
      exec_atomic bp c w code !p !cur;
      p := !p + 9
    | 16 ->
      (* MALLOC *)
      let q = !p in
      let m = !cur in
      let n = Array.unsafe_get (row_i bp w code.(q + 3)) (lb m) in
      let scope =
        match code.(q + 1) with
        | 0 -> A.Per_warp
        | 1 -> A.Per_block
        | _ -> A.Per_grid
      in
      let v =
        malloc_value c ~kname:bp.kname ~site:code.(q + 2) scope ~mask:m n
      in
      Array.fill (row_i bp w code.(q + 4)) 0 32 (V.as_buf v);
      p := q + 5
    | 17 ->
      (* SHLOADN: every value in the array is a number, so the float
         coercion the consumer would apply lane by lane cannot raise and
         is applied here instead *)
      let q = !p in
      let ii = row_i bp w code.(q + 1) in
      let df = row_f bp w code.(q + 2) in
      let arr = c.shared.(code.(q + 3)) in
      let name = bp.names.(code.(q + 4)) in
      let m = !cur in
      chg c 1 m;
      let idxs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      while !mm <> 0 do
        let l = lb !mm in
        let i = ii.(l) in
        if i < 0 || i >= Array.length arr then
          err "kernel %s: shared array %s[%d] out of bounds (size %d)"
            bp.kname name i (Array.length arr);
        Array.unsafe_set idxs !k i;
        incr k;
        df.(l) <- V.as_float arr.(i);
        mm := !mm land (!mm - 1)
      done;
      account_shared c idxs !k;
      p := q + 5
    | 18 ->
      (* DEVSYNC: run every pending launch of the block to completion
         now, then cut the segment *)
      chg c 2 !cur;
      let todo = Vec.to_array c.pending in
      Vec.clear c.pending;
      Array.iter c.host.flush_deep todo;
      Trace.cut c.seg Trace.Seg_sync;
      incr p
    | 19 ->
      (* FREE *)
      let ids = row_i bp w code.(!p + 1) in
      let buf = Mem.get_buf c.mem ids.(lb !cur) in
      let cost = Alloc.free c.alloc buf in
      c.host.add_alloc_cycles cost;
      c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
      R.charge c.seg cost 1;
      p := !p + 2
    | _ -> assert false
  done

(* --- lowering ------------------------------------------------------------- *)

type buf = { mutable a : int array; mutable len : int }

let bmake () = { a = Array.make 256 0; len = 0 }

let bpush b x =
  if b.len = Array.length b.a then begin
    let na = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 na 0 b.len;
    b.a <- na
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* A lowered operand, by static kind: [Ri] int, [Rf] float, [Ru] buffer
   handle (with its element type).  [Rn] is the one boxed form the
   bytecode keeps: a read of a numeric shared array, held as its float
   coercion — exact for consumers that coerce it to float (float
   arithmetic and comparisons against an unboxed operand), and
   {!Not_compilable} everywhere else.  Any other operand that would be
   boxed (or that the bytecode has no native form for) raises
   {!Not_compilable}: the kernel runs on the walker. *)
type reg = Ri of int | Rf of int | Ru of Ty.elem * int | Rn of int

type lstate = {
  env : env;
  code : buf;
  icst : (int, int) Hashtbl.t;
  mutable icsts : int list;  (* rev *)
  mutable nic : int;
  fcst : (int64, int) Hashtbl.t;
  mutable fcsts : float list;  (* rev *)
  mutable nfc : int;
  names : (string, int) Hashtbl.t;
  mutable snames : string list;  (* rev *)
  mutable nnames : int;
  mutable ti : int;  (* next int temp (reset per statement) *)
  mutable tf : int;
  mutable max_ti : int;
  mutable max_tf : int;
  pend : buf;  (* open FUSE group, quads *)
  mutable pend_n : int;
  mutable pend_ch : int;
  mutable pend_raise : int;  (* 0 none / 1 div / 2 mod *)
  mutable dirty : bool;  (* could [returned] have changed since the
                            last FILTER? *)
}

let flush l =
  if l.pend_n > 0 then begin
    bpush l.code 7;
    bpush l.code l.pend_n;
    bpush l.code l.pend_ch;
    for i = 0 to l.pend.len - 1 do
      bpush l.code l.pend.a.(i)
    done;
    l.pend.len <- 0;
    l.pend_n <- 0;
    l.pend_ch <- 0;
    l.pend_raise <- 0
  end

(* Append one quad to the open group.  [rk] is the raise kind (a group
   may hold raising ops of at most one kind so the abort message cannot
   be reordered); [ch] is its 1-cycle charge (free conversions pass 0). *)
let push_q l op a b d ~rk ~ch =
  if rk <> 0 && l.pend_raise <> 0 && l.pend_raise <> rk then flush l;
  bpush l.pend op;
  bpush l.pend a;
  bpush l.pend b;
  bpush l.pend d;
  l.pend_n <- l.pend_n + 1;
  l.pend_ch <- l.pend_ch + ch;
  if rk <> 0 then l.pend_raise <- rk

let push_op l op a b d = push_q l op a b d ~rk:0 ~ch:1

let ntmpi l =
  let t = l.ti in
  l.ti <- t + 1;
  if l.ti > l.max_ti then l.max_ti <- l.ti;
  tmpb + t

let ntmpf l =
  let t = l.tf in
  l.tf <- t + 1;
  if l.tf > l.max_tf then l.max_tf <- l.tf;
  tmpb + t

let cint l v =
  match Hashtbl.find_opt l.icst v with
  | Some i -> -(i + 1)
  | None ->
    let i = l.nic in
    Hashtbl.add l.icst v i;
    l.icsts <- v :: l.icsts;
    l.nic <- i + 1;
    -(i + 1)

let cflt l v =
  let key = Int64.bits_of_float v in
  match Hashtbl.find_opt l.fcst key with
  | Some i -> -(i + 1)
  | None ->
    let i = l.nfc in
    Hashtbl.add l.fcst key i;
    l.fcsts <- v :: l.fcsts;
    l.nfc <- i + 1;
    -(i + 1)

let name_id l n =
  match Hashtbl.find_opt l.names n with
  | Some i -> i
  | None ->
    let i = l.nnames in
    Hashtbl.add l.names n i;
    l.snames <- n :: l.snames;
    l.nnames <- i + 1;
    i

(* Charge-free coercions of an int or float operand, the walker's
   per-lane [V.as_int] / [V.as_float] on a value that cannot raise
   (reordering them after the other operand is unobservable: no charge,
   no raise). *)
let int_free l = function
  | Ri r -> r
  | Rf r ->
    let d = ntmpi l in
    push_q l 37 r 0 d ~rk:0 ~ch:0;
    d
  | Ru _ | Rn _ -> raise Not_compilable

let flt_free l = function
  | Rf r -> r
  | Ri r ->
    let d = ntmpf l in
    push_q l 36 r 0 d ~rk:0 ~ch:0;
    d
  | Ru _ | Rn _ -> raise Not_compilable

(* [flt_free] for the consumers whose walker semantics coerce a boxed
   operand lane by lane with [V.as_float] (float arithmetic and
   comparisons): there an [Rn] is already its coercion. *)
let flt_num l = function Rn r -> r | r -> flt_free l r

let is_rf = function Rf _ -> true | _ -> false

let rec lx l (e : A.expr) : reg =
  match e with
  | A.Const (V.Vint i) -> Ri (cint l i)
  | A.Const (V.Vfloat f) -> Rf (cflt l f)
  | A.Const (V.Vbuf id) -> Ru (Ty.Eany, cint l id)
  | A.Var v ->
    if v.A.slot < 0 then raise Not_compilable;
    (match (l.env.storage.(v.A.slot), l.env.slots.(v.A.slot)) with
    | Si r, Ty.St_buf el -> Ru (el, r)
    | Si r, _ -> Ri r
    | Sf r, _ -> Rf r)
  | A.Special sp ->
    let k =
      match sp with
      | A.Thread_idx -> 0
      | A.Block_idx -> 1
      | A.Block_dim -> 2
      | A.Grid_dim -> 3
      | A.Lane_id -> 4
      | A.Warp_id -> 5
      | A.Warp_size -> 6
    in
    let d = ntmpi l in
    push_op l 41 k 0 d;
    Ri d
  | A.Unop (op, a) -> lx_unop l op a
  | A.Binop (A.And, a, b) -> lx_andor l ~is_and:true a b
  | A.Binop (A.Or, a, b) -> lx_andor l ~is_and:false a b
  | A.Binop (op, a, b) -> lx_binop l op a b
  | A.Load (be, ie) -> lx_load l be ie
  | A.Shared_load (name, ie) -> lx_shload l name ie
  | A.Buf_len be -> (
    match lx l be with
    | Ru (_, br) ->
      flush l;
      let d = ntmpi l in
      bpush l.code 12;
      bpush l.code br;
      bpush l.code d;
      Ri d
    | _ -> raise Not_compilable)

and lx_unop l op a =
  match op with
  | A.Neg -> (
    match lx l a with
    | Ri r ->
      let d = ntmpi l in
      push_op l 30 r 0 d;
      Ri d
    | Rf r ->
      let d = ntmpf l in
      push_op l 31 r 0 d;
      Rf d
    | Ru _ | Rn _ -> raise Not_compilable)
  | A.Not -> (
    match lx l a with
    | Ri r ->
      let d = ntmpi l in
      push_op l 32 r 0 d;
      Ri d
    | Rf r ->
      let d = ntmpi l in
      push_op l 33 r 0 d;
      Ri d
    | Ru _ | Rn _ -> raise Not_compilable)
  | A.To_float -> (
    match lx l a with
    | Rf r ->
      (* the walker charges the node and passes the value through *)
      push_op l 40 0 0 0;
      Rf r
    | Ri r ->
      let d = ntmpf l in
      push_op l 34 r 0 d;
      Rf d
    | Ru _ | Rn _ -> raise Not_compilable)
  | A.To_int -> (
    match lx l a with
    | Ri r ->
      push_op l 40 0 0 0;
      Ri r
    | Rf r ->
      let d = ntmpi l in
      push_op l 35 r 0 d;
      Ri d
    | Ru _ | Rn _ -> raise Not_compilable)

and lx_andor l ~is_and a b =
  let ra = lx l a in
  let ak, ar =
    match ra with
    | Ri r -> (0, r)
    | Rf r -> (1, r)
    | Ru _ | Rn _ -> raise Not_compilable
  in
  flush l;
  let d = ntmpi l in
  bpush l.code 6;
  bpush l.code (if is_and then 1 else 0);
  bpush l.code d;
  bpush l.code ak;
  bpush l.code ar;
  let patch = l.code.len in
  bpush l.code 0;
  bpush l.code 0;
  bpush l.code 0;
  let rb = lx l b in
  let bk, br =
    match rb with
    | Ri r -> (0, r)
    | Rf r -> (1, r)
    | Ru _ | Rn _ -> raise Not_compilable
  in
  flush l;
  l.code.a.(patch) <- bk;
  l.code.a.(patch + 1) <- br;
  l.code.a.(patch + 2) <- l.code.len;
  Ri d

and lx_binop l op a b =
  let ra = lx l a in
  let rb = lx l b in
  (* [iop]/[fop]/[cop] are fused sub-opcodes (int form, float-arith
     form, float-cmp form). *)
  (* A numeric boxed read ([Rn]) takes the float path exactly where the
     walker's result does not depend on whether the boxed value is an
     int or a float: arithmetic beside a float, comparison beside any
     unboxed number. *)
  let arith iop fop =
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_op l iop x y d;
      Ri d
    | (Ri _ | Rf _), (Ri _ | Rf _) | Rf _, Rn _ | Rn _, Rf _ ->
      let x = flt_num l ra in
      let y = flt_num l rb in
      let d = ntmpf l in
      push_op l fop x y d;
      Rf d
    | _ -> raise Not_compilable
  in
  let cmp iop cop =
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_op l iop x y d;
      Ri d
    | (Ri _ | Rf _ | Rn _), (Ri _ | Rf _) | (Ri _ | Rf _), Rn _ ->
      let x = flt_num l ra in
      let y = flt_num l rb in
      let d = ntmpi l in
      push_op l cop x y d;
      Ri d
    | _ -> raise Not_compilable
  in
  let int_ctx iop =
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_op l iop x y d;
      Ri d
    | _ -> raise Not_compilable
  in
  match op with
  | A.And | A.Or -> assert false (* routed to lx_andor *)
  | A.Add -> arith 0 18
  | A.Sub -> arith 1 19
  | A.Mul -> arith 2 20
  | A.Div -> (
    if is_rf ra || is_rf rb then arith 0 21 (* float path only *)
    else
      match (ra, rb) with
      | Ri x, Ri y ->
        let d = ntmpi l in
        push_q l 3 x y d ~rk:1 ~ch:1;
        Ri d
      | _ -> raise Not_compilable)
  | A.Mod -> (
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_q l 4 x y d ~rk:2 ~ch:1;
      Ri d
    | _ -> raise Not_compilable)
  | A.Min -> arith 5 22
  | A.Max -> arith 6 23
  | A.Eq -> (
    match (ra, rb) with
    | Ru (_, x), Ru (_, y) ->
      (* buffer identity: compare handles *)
      let d = ntmpi l in
      push_op l 12 x y d;
      Ri d
    | _ -> cmp 12 24)
  | A.Ne -> (
    match (ra, rb) with
    | Ru (_, x), Ru (_, y) ->
      let d = ntmpi l in
      push_op l 13 x y d;
      Ri d
    | _ -> cmp 13 25)
  | A.Lt -> cmp 14 26
  | A.Le -> cmp 15 27
  | A.Gt -> cmp 16 28
  | A.Ge -> cmp 17 29
  | A.Shl -> int_ctx 7
  | A.Shr -> int_ctx 8
  | A.Bit_and -> int_ctx 9
  | A.Bit_or -> int_ctx 10
  | A.Bit_xor -> int_ctx 11

and lx_load l be ie =
  let rb = lx l be in
  let ri = lx l ie in
  match rb with
  | Ru (Ty.Eint, br) ->
    let ir = int_free l ri in
    flush l;
    let d = ntmpi l in
    bpush l.code 8;
    bpush l.code br;
    bpush l.code ir;
    bpush l.code d;
    Ri d
  | Ru (Ty.Efloat, br) ->
    let ir = int_free l ri in
    flush l;
    let d = ntmpf l in
    bpush l.code 9;
    bpush l.code br;
    bpush l.code ir;
    bpush l.code d;
    Rf d
  | _ -> raise Not_compilable

and lx_shload l name ie =
  match Hashtbl.find_opt l.env.shindex name with
  | None -> raise Not_compilable
  | Some idx -> (
    match l.env.shtys.(idx) with
    | Ty.Sh_bot | Ty.Sh_int ->
      let ir = int_free l (lx l ie) in
      flush l;
      let d = ntmpi l in
      bpush l.code 13;
      bpush l.code ir;
      bpush l.code d;
      bpush l.code idx;
      bpush l.code (name_id l name);
      Ri d
    | Ty.Sh_boxed when l.env.shnum.(idx) ->
      let ir = int_free l (lx l ie) in
      flush l;
      let d = ntmpf l in
      bpush l.code 17;
      bpush l.code ir;
      bpush l.code d;
      bpush l.code idx;
      bpush l.code (name_id l name);
      Rn d
    | Ty.Sh_boxed -> raise Not_compilable)

(* --- statement lowering --------------------------------------------------- *)

let begin_stmt l =
  if l.dirty then begin
    flush l;
    bpush l.code 0;
    l.dirty <- false
  end;
  l.ti <- 0;
  l.tf <- 0

let rec ls l (s : A.stmt) =
  begin_stmt l;
  match s with
  | A.Let (v, e) -> (
    if v.A.slot < 0 then raise Not_compilable;
    match l.env.storage.(v.A.slot) with
    | Si r -> (
      match lx l e with
      | Ri x | Ru (_, x) -> push_op l 38 x 0 r
      | Rf _ | Rn _ -> raise Not_compilable)
    | Sf r -> (
      match lx l e with
      | Rf x -> push_op l 39 x 0 r
      | _ -> raise Not_compilable))
  | A.Store (be, ie, xe) -> (
    let rb = lx l be in
    let ri = lx l ie in
    let rx = lx l xe in
    match rb with
    | Ru (Ty.Eint, br) ->
      let ir = int_free l ri in
      let xr = int_free l rx in
      flush l;
      bpush l.code 10;
      bpush l.code br;
      bpush l.code ir;
      bpush l.code xr
    | Ru (Ty.Efloat, br) ->
      let ir = int_free l ri in
      let xr = flt_free l rx in
      flush l;
      bpush l.code 11;
      bpush l.code br;
      bpush l.code ir;
      bpush l.code xr
    | _ -> raise Not_compilable)
  | A.Shared_store (name, ie, xe) -> (
    match Hashtbl.find_opt l.env.shindex name with
    | None -> raise Not_compilable
    | Some idx ->
      let ir = int_free l (lx l ie) in
      let kind, xr =
        match lx l xe with
        | Ri r -> (0, r)
        | Rf r -> (1, r)
        | Ru (_, r) -> (2, r)
        | Rn _ -> raise Not_compilable
      in
      flush l;
      bpush l.code 14;
      bpush l.code kind;
      bpush l.code ir;
      bpush l.code xr;
      bpush l.code idx;
      bpush l.code (name_id l name))
  | A.If (cond, t, f) ->
    let k, r =
      match lx l cond with
      | Ri r -> (0, r)
      | Rf r -> (1, r)
      | Ru _ | Rn _ -> raise Not_compilable
    in
    flush l;
    bpush l.code 3;
    bpush l.code k;
    bpush l.code r;
    let patch = l.code.len in
    bpush l.code 0;
    bpush l.code 0;
    l.dirty <- false;
    List.iter (ls l) t;
    flush l;
    l.code.a.(patch) <- l.code.len;
    l.dirty <- false;
    List.iter (ls l) f;
    flush l;
    l.code.a.(patch + 1) <- l.code.len;
    l.dirty <- true
  | A.While (cond, body) ->
    (* the condition re-executes every iteration: nothing before it may
       join its group, and its code is its own region *)
    flush l;
    bpush l.code 4;
    let patch = l.code.len in
    bpush l.code 0;
    bpush l.code 0;
    let k, r =
      match lx l cond with
      | Ri r -> (0, r)
      | Rf r -> (1, r)
      | Ru _ | Rn _ -> raise Not_compilable
    in
    flush l;
    l.code.a.(patch) <- l.code.len;
    bpush l.code k;
    bpush l.code r;
    l.dirty <- false;
    List.iter (ls l) body;
    flush l;
    l.code.a.(patch + 1) <- l.code.len;
    l.dirty <- true
  | A.For (v, lo, hi, body) -> (
    if v.A.slot < 0 then raise Not_compilable;
    match l.env.storage.(v.A.slot) with
    | Si var -> (
      match lx l lo with
      | Ri lor_ ->
        flush l;
        bpush l.code 5;
        bpush l.code var;
        bpush l.code lor_;
        let patch = l.code.len in
        bpush l.code 0;
        bpush l.code 0;
        bpush l.code 0;
        let hir = int_free l (lx l hi) in
        flush l;
        l.code.a.(patch) <- hir;
        l.code.a.(patch + 1) <- l.code.len;
        l.dirty <- false;
        List.iter (ls l) body;
        flush l;
        l.code.a.(patch + 2) <- l.code.len;
        l.dirty <- true
      | _ -> raise Not_compilable)
    | _ -> raise Not_compilable)
  | A.Return ->
    flush l;
    bpush l.code 1;
    l.dirty <- true
  | A.Atomic { op; buf = be; idx = ie; operand = oe; compare = ce; old } ->
    ls_atomic l op be ie oe ce old
  | A.Malloc { dst; count; scope; site } ->
    if site < 0 || dst.A.slot < 0 then raise Not_compilable;
    let d =
      match l.env.storage.(dst.A.slot) with
      | Si r -> r
      | Sf _ -> raise Not_compilable (* the handle cannot coerce to float *)
    in
    let nr = int_free l (lx l count) in
    flush l;
    bpush l.code 16;
    bpush l.code
      (match scope with A.Per_warp -> 0 | A.Per_block -> 1 | A.Per_grid -> 2);
    bpush l.code site;
    bpush l.code nr;
    bpush l.code d
  | A.Launch { A.callee; grid; block; args; _ } ->
    (* grid and block coerce to int per lane; arguments are boxed by
       their static kind *)
    let dim e =
      match lx l e with
      | Ri r -> (0, r)
      | Rf r -> (1, r)
      | Ru _ | Rn _ -> raise Not_compilable
    in
    let gk, gr = dim grid in
    let bk, br = dim block in
    let args =
      List.map
        (fun e ->
          match lx l e with
          | Ri r -> (0, r)
          | Rf r -> (1, r)
          | Ru (_, r) -> (2, r)
          | Rn _ -> raise Not_compilable)
        args
    in
    flush l;
    List.iter (bpush l.code)
      [ 2; name_id l callee; gk; gr; bk; br; List.length args ];
    List.iter
      (fun (k, r) ->
        bpush l.code k;
        bpush l.code r)
      args
  | A.Device_sync ->
    flush l;
    bpush l.code 18
  | A.Free e -> (
    match lx l e with
    | Ru (_, r) ->
      flush l;
      bpush l.code 19;
      bpush l.code r
    | Ri _ | Rf _ | Rn _ -> raise Not_compilable)
  | A.Syncthreads | A.Grid_barrier ->
    (* only reachable outside block-uniform code *)
    raise Not_compilable

(* Atomics lower natively where the walker's result has a static kind:
   an int buffer with an int operand (and an int-coercible compare for
   CAS), or a float buffer with a numeric operand (CAS compares
   [Float.to_int] of the old value with the int-coerced compare, as the
   walker does).  The [old] destination must be a slot of the buffer's
   kind.  Every other shape ([any]-element buffers, boxed operands)
   raises {!Not_compilable}. *)
and ls_atomic l op be ie oe ce old =
  let rb = lx l be in
  let ri = lx l ie in
  let ro = lx l oe in
  let rc = Option.map (lx l) ce in
  let is_cas = op = A.Acas in
  let opc =
    match op with
    | A.Aadd -> 0
    | A.Amin -> 1
    | A.Amax -> 2
    | A.Aexch -> 3
    | A.Acas -> 4
  in
  let dest unboxed =
    match old with
    | None -> (0, 0)
    | Some v -> (
      if v.A.slot < 0 then raise Not_compilable;
      match unboxed l.env.storage.(v.A.slot) with
      | Some r -> (1, r)
      | None -> raise Not_compilable)
  in
  let kind, br, orr, cr, (dk, d) =
    match (rb, rc) with
    | Ru (Ty.Eint, br), _ ->
      let orr = match ro with Ri r -> r | _ -> raise Not_compilable in
      let cr =
        match rc with
        | Some rc -> int_free l rc
        | None -> if is_cas then raise Not_compilable else 0
      in
      (0, br, orr, cr, dest (function Si r -> Some r | _ -> None))
    | Ru (Ty.Efloat, br), None when not is_cas ->
      (1, br, flt_free l ro, 0, dest (function Sf r -> Some r | _ -> None))
    | Ru (Ty.Efloat, br), Some rc when is_cas ->
      let orr = flt_free l ro in
      (1, br, orr, int_free l rc, dest (function Sf r -> Some r | _ -> None))
    | _ -> raise Not_compilable
  in
  let ir = int_free l ri in
  flush l;
  bpush l.code 15;
  bpush l.code kind;
  bpush l.code opc;
  bpush l.code br;
  bpush l.code ir;
  bpush l.code orr;
  bpush l.code cr;
  bpush l.code dk;
  bpush l.code d

(* --- lowered programs ------------------------------------------------------ *)

(* Warp register-plane row counts, recovered from the slot storage map. *)
let plane_rows (env : env) =
  let ni = ref 0 and nf = ref 0 in
  Array.iter
    (function
      | Si r -> if r + 1 > !ni then ni := r + 1
      | Sf r -> if r + 1 > !nf then nf := r + 1)
    env.storage;
  (!ni, !nf)

(* Lower one program: [emit] appends its code to a fresh lowering state
   and returns the uniform-condition result, if any.  [dirty] says
   whether the program must open with a FILTER (a statement run: earlier
   segments may have returned lanes). *)
let lower_prog (env : env) ~dirty emit : bprog * stream =
  let l =
    {
      env;
      code = bmake ();
      icst = Hashtbl.create 16;
      icsts = [];
      nic = 0;
      fcst = Hashtbl.create 16;
      fcsts = [];
      nfc = 0;
      names = Hashtbl.create 4;
      snames = [];
      nnames = 0;
      ti = 0;
      tf = 0;
      max_ti = 0;
      max_tf = 0;
      pend = bmake ();
      pend_n = 0;
      pend_ch = 0;
      pend_raise = 0;
      dirty;
    }
  in
  let result = emit l in
  flush l;
  let bp =
    {
      code = Array.sub l.code.a 0 l.code.len;
      ci =
        Array.of_list (List.rev_map (fun v -> Array.make 32 v) l.icsts);
      cf =
        Array.of_list (List.rev_map (fun v -> Array.make 32 v) l.fcsts);
      tmpi = Array.init l.max_ti (fun _ -> Array.make 32 0);
      tmpf = Array.init l.max_tf (fun _ -> Array.make 32 0.0);
      names = Array.of_list (List.rev l.snames);
      kname = env.kname;
      lanes = Array.make 32 0;
      addrs = Array.make 32 0;
    }
  in
  let ni, nf = plane_rows env in
  let sm =
    {
      s_kname = env.kname;
      s_code = bp.code;
      s_nic = l.nic;
      s_nfc = l.nfc;
      s_ntmpi = l.max_ti;
      s_ntmpf = l.max_tf;
      s_nint = ni;
      s_nflt = nf;
      s_nsites = env.nsites;
      s_nshared = Array.length env.shtys;
      s_nnames = l.nnames;
      s_result = result;
    }
  in
  (bp, sm)

(* --- block-uniform segments ---------------------------------------------- *)

(* A block-uniform condition or loop bound: a program computing the
   expression, and the kind (0 int / 1 float / 2 buffer) and register
   of its value.  Boxed values have no uniform form. *)
type ucond = { u_prog : bprog; u_len : int; u_kind : int; u_row : int }

type uval = Unone | Uint of int | Ufloat of float | Ubuf of int

let utruthy = function
  | Unone -> false
  | Uint i -> i <> 0
  | Ufloat f -> f <> 0.0
  | Ubuf id -> V.truthy (V.Vbuf id)

let uint = function
  | Unone -> 0
  | Uint i -> i
  | Ufloat f -> Float.to_int f
  | Ubuf id -> V.as_int (V.Vbuf id)

let nonuniform (env : env) (v0 : V.t) (v1 : V.t) =
  err
    "kernel %s: non-uniform condition around a block-level barrier (%s vs \
     %s)"
    env.kname (V.to_string v0) (V.to_string v1)

let lower_ucond env acc (e : A.expr) : ucond =
  let bp, sm =
    lower_prog env ~dirty:false (fun l ->
        match lx l e with
        | Ri r -> Some (0, r)
        | Rf r -> Some (1, r)
        | Ru (_, r) -> Some (2, r)
        | Rn _ -> raise Not_compilable)
  in
  acc := sm :: !acc;
  let u_kind, u_row = Option.get sm.s_result in
  { u_prog = bp; u_len = Array.length bp.code; u_kind; u_row }

(* Evaluate a uniform condition on every live lane of the block, charging
   1 per live warp after its program, as the walker does; all live lanes
   must agree (the CUDA legality rule for barriers inside control flow).
   [Unone] when no lane in the block is live.  The agreement test on raw
   ints/floats is the walker's polymorphic [<>] on the boxed values
   (IEEE semantics on floats, NaN included). *)
let ueval env u c =
  let got = ref false and vi = ref 0 and vf = ref 0.0 in
  Array.iter
    (fun w ->
      let m0 = live_mask w in
      if m0 <> 0 then begin
        exec u.u_prog c w 0 u.u_len m0;
        chg c 1 m0;
        let mm = ref m0 in
        if u.u_kind = 1 then begin
          let a = row_f u.u_prog w u.u_row in
          while !mm <> 0 do
            let l = lb !mm in
            if not !got then begin
              got := true;
              vf := a.(l)
            end
            else if a.(l) <> !vf then
              nonuniform env (V.Vfloat !vf) (V.Vfloat a.(l));
            mm := !mm land (!mm - 1)
          done
        end
        else begin
          let a = row_i u.u_prog w u.u_row in
          let box x = if u.u_kind = 0 then V.Vint x else V.Vbuf x in
          while !mm <> 0 do
            let l = lb !mm in
            if not !got then begin
              got := true;
              vi := a.(l)
            end
            else if a.(l) <> !vi then nonuniform env (box !vi) (box a.(l));
            mm := !mm land (!mm - 1)
          done
        end
      end)
    c.warps;
  if not !got then Unone
  else
    match u.u_kind with 0 -> Uint !vi | 1 -> Ufloat !vf | _ -> Ubuf !vi

(* A block: maximal runs of barrier-free statements become one program
   each, executed warp by warp; barrier-bearing statements run under the
   per-block uniform driver.  [acc] collects every stream lowered, in
   program order. *)
let rec compile_block env acc (stmts : A.stmt list) : cctx -> unit =
  let rec split_run run = function
    | s :: rest when not (A.needs_block_uniform s) ->
      split_run (s :: run) rest
    | rest -> (List.rev run, rest)
  in
  let rec go = function
    | [] -> []
    | s :: rest when A.needs_block_uniform s ->
      compile_uniform env acc s :: go rest
    | stmts ->
      let run, rest = split_run [] stmts in
      let bp, sm =
        lower_prog env ~dirty:true (fun l ->
            List.iter (ls l) run;
            None)
      in
      acc := sm :: !acc;
      let len = Array.length bp.code in
      (fun c ->
        Array.iter
          (fun w -> if live_mask w <> 0 then exec bp c w 0 len (full_mask w))
          c.warps)
      :: go rest
  in
  let segs = Array.of_list (go stmts) in
  fun c -> Array.iter (fun f -> f c) segs

and compile_uniform env acc (s : A.stmt) : cctx -> unit =
  match s with
  | A.Syncthreads ->
    fun c ->
      Array.iter
        (fun w ->
          let m = live_mask w in
          if m <> 0 then chg c 2 m)
        c.warps
  | A.Grid_barrier ->
    fun c ->
      (* One lane per block performs the arrival atomic; all blocks except
         the last to arrive exit (Section IV.E deadlock avoidance). *)
      R.charge c.seg c.cfg.Cfg.atomic_cycles 1;
      Trace.cut c.seg Trace.Seg_barrier;
      if c.block_idx <> c.grid_dim - 1 then
        Array.iter
          (fun w -> w.returned <- w.returned lor full_mask w)
          c.warps
  | A.If (cond, t, f) ->
    let u = lower_ucond env acc cond in
    let ct = compile_block env acc t in
    let cf = compile_block env acc f in
    fun c -> (
      match ueval env u c with
      | Unone -> ()
      | v -> if utruthy v then ct c else cf c)
  | A.While (cond, body) ->
    let u = lower_ucond env acc cond in
    let cbody = compile_block env acc body in
    fun c ->
      let running = ref true in
      while !running do
        match ueval env u c with
        | Unone -> running := false
        | v -> if utruthy v then cbody c else running := false
      done
  | A.For (v, lo, hi, body) ->
    let r =
      if v.A.slot < 0 then raise Not_compilable;
      match env.storage.(v.A.slot) with
      | Si r -> r
      | Sf _ -> raise Not_compilable
    in
    let ulo = lower_ucond env acc lo in
    let uhi = lower_ucond env acc hi in
    let cbody = compile_block env acc body in
    let set_var c i =
      Array.iter
        (fun w ->
          let m0 = live_mask w in
          if m0 <> 0 then begin
            chg c 1 m0;
            fill_i w.ints.(r) m0 i
          end)
        c.warps
    in
    fun c -> (
      match ueval env ulo c with
      | Unone -> ()
      | u0 ->
        let i = ref (uint u0) in
        set_var c !i;
        let running = ref true in
        while !running do
          match ueval env uhi c with
          | Unone -> running := false
          | uh ->
            if !i < uint uh then begin
              cbody c;
              incr i;
              set_var c !i
            end
            else running := false
        done)
  | A.Let _ | A.Store _ | A.Shared_store _ | A.Device_sync | A.Atomic _
  | A.Launch _ | A.Malloc _ | A.Free _ | A.Return ->
    (* only barrier-bearing statements are routed here *)
    raise Not_compilable

(* --- whole kernels ------------------------------------------------------- *)

type ckernel = {
  ck_kernel : K.t;
  ck_nint : int;  (** int-plane rows per warp *)
  ck_nflt : int;
  ck_param_store : storage list;  (** aligned with the parameter list *)
  ck_param_ty : Ty.slot_ty list;
  ck_run : cctx -> unit;
  ck_streams : stream list;  (** every lowered program, in program order *)
  mutable ck_free : warp array;
      (** warps of finished blocks, ready for reuse: [0, ck_nfree) *)
  mutable ck_nfree : int;
}

(* Which shared arrays only ever hold numbers?  Shared arrays start as
   [Vint 0] and change only through [Shared_store]; every expression
   except a buffer constant, a buffer/boxed variable or a boxed shared
   read evaluates to a number (or raises), so an array whose every
   stored value is one of those numeric forms never holds a handle. *)
let numeric_shared ~slots ~shindex ~shtys body =
  let numeric (e : A.expr) =
    match e with
    | A.Const (V.Vbuf _) -> false
    | A.Var v -> (
      v.A.slot >= 0
      &&
      match slots.(v.A.slot) with
      | Ty.St_bot | Ty.St_int | Ty.St_float -> true
      | Ty.St_buf _ | Ty.St_boxed -> false)
    | A.Shared_load (name, _) -> (
      match Hashtbl.find_opt shindex name with
      | Some i -> shtys.(i) <> Ty.Sh_boxed
      | None -> false)
    | A.Const _ | A.Special _ | A.Unop _ | A.Binop _ | A.Load _
    | A.Buf_len _ ->
      true
  in
  let num = Array.make (Array.length shtys) true in
  A.iter_block
    ~on_stmt:(function
      | A.Shared_store (name, _, xe) when not (numeric xe) -> (
        match Hashtbl.find_opt shindex name with
        | Some i -> num.(i) <- false
        | None -> ())
      | _ -> ())
    ~on_expr:ignore body;
  num

let compile_kernel (k : K.t) : ckernel option =
  match k.K.typing with
  | None -> None
  | Some ty when not ty.Ty.ok -> None
  | Some ty -> (
    try
      let nslots = Array.length ty.Ty.slots in
      let storage = Array.make nslots (Si 0) in
      let ni = ref 0 and nf = ref 0 in
      Array.iteri
        (fun i st ->
          match st with
          | Ty.St_bot | Ty.St_int | Ty.St_buf _ ->
            storage.(i) <- Si !ni;
            incr ni
          | Ty.St_float ->
            storage.(i) <- Sf !nf;
            incr nf
          | Ty.St_boxed -> raise Not_compilable)
        ty.Ty.slots;
      let shindex = Hashtbl.create 4 in
      List.iteri
        (fun i (name, _) -> Hashtbl.replace shindex name i)
        k.K.shared;
      let shtys = Array.of_list (List.map snd ty.Ty.shared) in
      let shnum = numeric_shared ~slots:ty.Ty.slots ~shindex ~shtys k.K.body in
      let env = { kname = k.K.kname; slots = ty.Ty.slots; storage; shindex;
                  shtys; shnum; nsites = k.K.nsites }
      in
      let acc = ref [] in
      let run = compile_block env acc k.K.body in
      let param_store =
        List.map
          (fun (p : A.param) ->
            if p.A.pvar.A.slot < 0 then raise Not_compilable;
            storage.(p.A.pvar.A.slot))
          k.K.params
      in
      let param_ty =
        List.map
          (fun (p : A.param) -> ty.Ty.slots.(p.A.pvar.A.slot))
          k.K.params
      in
      Some
        { ck_kernel = k; ck_nint = !ni; ck_nflt = !nf;
          ck_param_store = param_store; ck_param_ty = param_ty; ck_run = run;
          ck_streams = List.rev !acc; ck_free = [||]; ck_nfree = 0 }
    with Not_compilable -> None)

let streams_of_kernel k =
  Option.map (fun ck -> ck.ck_streams) (compile_kernel k)

(* Do the launch arguments' runtime types agree with the inference?  A
   mismatching launch (e.g. a float passed for an int parameter) takes
   the reference walker, which defines the semantics of such calls. *)
let args_ok ck mem (args : V.t list) =
  try
    List.for_all2
      (fun sty (v : V.t) ->
        match (sty, v) with
        | Ty.St_bot, _ -> true
        | Ty.St_int, V.Vint _ -> true
        | Ty.St_float, V.Vfloat _ -> true
        | Ty.St_buf Ty.Eany, V.Vbuf _ -> true
        | Ty.St_buf Ty.Eint, V.Vbuf id -> (
          match (Mem.get_buf mem id).Mem.data with
          | Mem.I _ -> true
          | Mem.F _ -> false)
        | Ty.St_buf Ty.Efloat, V.Vbuf id -> (
          match (Mem.get_buf mem id).Mem.data with
          | Mem.F _ -> true
          | Mem.I _ -> false)
        | _ -> false)
      ck.ck_param_ty args
  with _ -> false

(* --- block execution ----------------------------------------------------- *)

(* A warp for one block: a finished block's warp from the kernel's free
   list, reset to exactly the state a fresh allocation has (rows [0]
   and [0.0], no lane returned), or a fresh one.  The free list
   lives in the [ckernel], which only ever runs in one domain, like its
   programs' scratch.  A block nested inside another block of the same
   kernel (a child run by a deep [DEVSYNC] flush) takes its own warps,
   since its parent's are off the list until the parent ends. *)
let take_warp ck ~widx ~base_lane ~nlanes =
  if ck.ck_nfree = 0 then
    {
      widx;
      base_lane;
      nlanes;
      ints = Array.init ck.ck_nint (fun _ -> Array.make 32 0);
      flts = Array.init ck.ck_nflt (fun _ -> Array.make 32 0.0);
      returned = 0;
    }
  else begin
    let n = ck.ck_nfree - 1 in
    ck.ck_nfree <- n;
    let w = ck.ck_free.(n) in
    w.widx <- widx;
    w.base_lane <- base_lane;
    w.nlanes <- nlanes;
    w.returned <- 0;
    for r = 0 to Array.length w.ints - 1 do
      let a = w.ints.(r) in
      for l = 0 to 31 do
        Array.unsafe_set a l 0
      done
    done;
    for r = 0 to Array.length w.flts - 1 do
      let a = w.flts.(r) in
      for l = 0 to 31 do
        Array.unsafe_set a l 0.0
      done
    done;
    w
  end

(* Return a finished block's warps to the free list. *)
let release_warps ck (warps : warp array) =
  let need = ck.ck_nfree + Array.length warps in
  if need > Array.length ck.ck_free then begin
    let a = Array.make (Int.max need (2 * Array.length ck.ck_free)) warps.(0) in
    Array.blit ck.ck_free 0 a 0 ck.ck_nfree;
    ck.ck_free <- a
  end;
  Array.blit warps 0 ck.ck_free ck.ck_nfree (Array.length warps);
  ck.ck_nfree <- need

let exec_block (ck : ckernel) ~(cfg : Cfg.t) ~mem ~alloc ~mm ~gid
    ~grid_dim ~block_dim ~depth ~block_idx ~(args : V.t list) ~grid_mallocs
    ~grid_alloc_count ~host ~deep : Trace.block_trace =
  let nwarps = Cfg.warps_per_block cfg ~block_dim in
  let ws = cfg.Cfg.warp_size in
  let warp widx =
    let base_lane = widx * ws in
    take_warp ck ~widx ~base_lane ~nlanes:(Int.min ws (block_dim - base_lane))
  in
  let warps = Array.make nwarps (warp 0) in
  for widx = 1 to nwarps - 1 do
    warps.(widx) <- warp widx
  done;
  (* Bind parameters in every lane (argument kinds verified by args_ok). *)
  List.iter2
    (fun st (v : V.t) ->
      match st with
      | Si r ->
        let x =
          match v with
          | V.Vint i -> i
          | V.Vbuf id -> id
          | V.Vfloat _ -> assert false
        in
        for k = 0 to nwarps - 1 do
          let a = warps.(k).ints.(r) in
          for l = 0 to 31 do
            Array.unsafe_set a l x
          done
        done
      | Sf r ->
        let x = match v with V.Vfloat f -> f | _ -> assert false in
        for k = 0 to nwarps - 1 do
          let a = warps.(k).flts.(r) in
          for l = 0 to 31 do
            Array.unsafe_set a l x
          done
        done)
    ck.ck_param_store args;
  let shared =
    Array.of_list
      (List.map
         (fun (_, size) -> Array.make size (V.Vint 0))
         ck.ck_kernel.K.shared)
  in
  let c =
    {
      cfg;
      mem;
      alloc;
      mm;
      gid;
      grid_dim;
      block_dim;
      depth;
      block_idx;
      shared;
      warps;
      seg = Trace.seg_builder ();
      block_mallocs = Array.make (Int.max 1 ck.ck_kernel.K.nsites) None;
      grid_mallocs;
      grid_alloc_count;
      pending = Vec.create ~dummy:R.dummy_pending;
      deep;
      host;
    }
  in
  Memmodel.block_start mm;
  ck.ck_run c;
  release_warps ck warps;
  (* Block end: in deep mode (an enclosing sync is waiting on this
     subtree) children run to completion now; otherwise they join the
     global breadth-order queue. *)
  let todo = Vec.to_array c.pending in
  Vec.clear c.pending;
  if deep then Array.iter host.flush_deep todo
  else Array.iter host.enqueue todo;
  Trace.finish c.seg ~block_idx ~warps:nwarps
