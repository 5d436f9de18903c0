(** Third interpreter tier: finalized kernels flattened to a dense array
    of int-coded instructions over unboxed int/float register planes,
    executed by a tight dispatch loop with warp-wide inner loops.

    This is a {e second lowering} plugged into {!Compile.compile_kernel}
    via [?run_lower]: every maximal barrier-free statement run becomes
    one bytecode program; block-uniform segments (barriers and the
    control flow around them) keep the closure lowering.  The result is
    an ordinary {!Compile.ckernel}, so argument vetting, block
    execution, caching and the engine plumbing are shared with the
    closure tier.

    Design:

    - {b Registers.}  An operand is a single int [r]: [r >= tmp_base]
      indexes the program's private temp plane, [0 <= r < tmp_base] a
      warp register row (same row assignment as {!Compile}), [r < 0]
      the 32-wide constant pool.  Int and float spaces are separate;
      the kind travels in the lowering, never at run time.
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
    - {b Native statements.}  Besides arithmetic, loads/stores, shared
      memory and structured control, the statements consolidated kernels
      execute most lower natively: atomics on int and float buffers
      ([ATOMIC], mirroring {!Compile}'s unboxed atomic paths), lets into
      boxed slots (BOX quads), device mallocs ([MALLOC], through the
      allocation path shared with the closure tier) and reads of shared
      arrays that provably hold only numbers ([SHLOADN]).
    - {b Fallback.}  Anything the bytecode does not lower natively —
      launches, syncs, frees, statements over boxed or type-mixed
      operands — falls back {e per statement} to {!Compile.compile_stmt}
      via a [CALL] op, so coverage and error identity are exactly the
      closure tier's ({!Compile.Not_compilable} propagates and the whole
      kernel then takes the reference walker, as before).

    Charge-for-charge equivalence with the walker and the closure tier
    is proven by the three-way differential suite. *)

module A = Dpc_kir.Ast
module V = Dpc_kir.Value
module Ty = Dpc_kir.Typing
module Mem = Dpc_gpu.Memory
module Cfg = Dpc_gpu.Config
module C = Compile
module R = Runtime

let err = R.err

(* Local copies of the hot {!Runtime} primitives.  flambda is off, so a
   cross-module call never inlines, and the dispatch loop pays these
   millions of times per run; the bodies are bit-identical to
   [R.lowest_bit] / [R.popcount] / [R.charge]. *)
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

(* [chg c cycles m] = [Compile.charge c cycles (popcount m)], inlined. *)
let[@inline] chg (c : C.cctx) cycles m =
  let seg = c.C.seg in
  seg.Trace.issue <- seg.Trace.issue + cycles;
  seg.Trace.lane_cycles <- seg.Trace.lane_cycles + (cycles * pc m)

(* Memory-access accounting is NOT inlined here: every global access
   goes through [C.account] -> {!Memmodel.account_access} (and shared
   accesses through [C.account_shared]) so the cost semantics live in
   exactly one place across all three tiers. *)

(* Superinstruction fusion toggle (ablation): lowering-time only, so
   flip it on cache-free sessions. *)
let fusion =
  ref
    (match Sys.getenv_opt "DPC_BYTECODE_FUSE" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let set_fusion b = fusion := b

let fusion_enabled () = !fusion

(* Register encoding split points. *)
let tmpb = 0x400000

let temp_base = tmpb

(* --- opcode tables -------------------------------------------------------

   Stream ops (operand counts include the opcode itself):
     0 FILTER                       1
     1 RET                          1
     2 CALL stmt                    2
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
                                        old / 1 unboxed row / 2 boxed row
    16 MALLOC scope site n dk d     6   scope 0 warp / 1 block / 2 grid;
                                        n read at the lowest active lane;
                                        dk 0 int row / 1 boxed row
    17 SHLOADN i d sh nm            5   boxed read of a numeric shared
                                        array, coerced to float

   Fused sub-ops, one quad [op; a; b; d] each:
     0..11  IADD ISUB IMUL IDIV IMOD IMIN IMAX ISHL ISHR IAND IOR IXOR
     12..17 IEQ INE ILT ILE IGT IGE
     18..23 FADD FSUB FMUL FDIV FMIN FMAX
     24..29 FEQ FNE FLT FLE FGT FGE
     30 INEG  31 FNEG  32 INOT  33 FNOT
     34 I2F   35 F2I   36 I2F_FREE  37 F2I_FREE   (36/37 charge nothing)
     38 MOVI  39 MOVF  40 CHARGE1   41 SPECIAL (a = special kind)
     42 BOXI  43 BOXF  44 BOXU      (d = boxed warp row)
*)

(* --- compiled program ----------------------------------------------------- *)

type bprog = {
  code : int array;
  stmts : (C.cctx -> C.warp -> int -> unit) array;
      (** closure fallbacks, indexed by [CALL] *)
  ci : int array array;  (** int constant pool, 32-wide rows *)
  cf : float array array;
  tmpi : int array array;  (** temp planes, 32-wide rows *)
  tmpf : float array array;
  shnames : string array;  (** shared-array names for error messages *)
  kname : string;
  lanes : int array;  (** FUSE active-lane list scratch (divergent masks) *)
  addrs : int array;  (** memory-op coalescing scratch *)
}

(** The marshal-safe image of one lowered run: the instruction stream
    plus every bound an operand can be checked against.  This is what
    the static bytecode verifier ({!Dpc_check.Bcverify}) consumes —
    [bprog] itself holds closures and live scratch, so it can neither
    be persisted nor inspected without executing. *)
type stream = {
  s_kname : string;
  s_code : int array;
  s_nstmts : int;  (** closure-fallback slots ([CALL] operand space) *)
  s_nic : int;  (** int constant-pool rows *)
  s_nfc : int;  (** float constant-pool rows *)
  s_ntmpi : int;  (** int temp-plane rows *)
  s_ntmpf : int;  (** float temp-plane rows *)
  s_nint : int;  (** warp int-plane rows (buffer handles included) *)
  s_nflt : int;  (** warp float-plane rows *)
  s_nbox : int;  (** warp boxed-plane rows *)
  s_nsites : int;  (** the kernel's [Malloc] sites *)
  s_nshared : int;  (** shared arrays in scope *)
  s_nnames : int;  (** interned shared-name ids *)
  s_calls : string array;
      (** statement kind behind each [CALL] slot (see {!stmt_tag}) *)
}

(* Lane list for a full mask: the identity, shared by every program. *)
let lane_id = Array.init 32 Fun.id

let[@inline] row_i bp (w : C.warp) r =
  if r >= tmpb then bp.tmpi.(r - tmpb)
  else if r >= 0 then w.C.ints.(r)
  else bp.ci.(-r - 1)

let[@inline] row_f bp (w : C.warp) r =
  if r >= tmpb then bp.tmpf.(r - tmpb)
  else if r >= 0 then w.C.flts.(r)
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
let exec_fuse bp c (w : C.warp) (code : int array) p m =
  let n = code.(p + 1) in
  let ch = code.(p + 2) in
  if ch > 0 then chg c ch m;
  let lanes, nact =
    if m = (1 lsl w.C.nlanes) - 1 then (lane_id, w.C.nlanes)
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
    | 41 ->
      let arg = Array.unsafe_get code (q + 1) in
      let d = row_i bp w (Array.unsafe_get code (q + 3)) in
      if arg = 0 then
        for t = 0 to nact - 1 do
          let l = Array.unsafe_get lanes t in
          Array.unsafe_set d l (w.C.base_lane + l)
        done
      else if arg = 4 then
        for t = 0 to nact - 1 do
          let l = Array.unsafe_get lanes t in
          Array.unsafe_set d l l
        done
      else begin
        let v =
          match arg with
          | 1 -> c.C.block_idx
          | 2 -> c.C.block_dim
          | 3 -> c.C.grid_dim
          | 5 -> w.C.widx
          | _ -> c.C.cfg.Cfg.warp_size
        in
        for t = 0 to nact - 1 do
          Array.unsafe_set d (Array.unsafe_get lanes t) v
        done
      end
    | 42 ->
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = w.C.boxd.(Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (V.Vint (Array.unsafe_get a l))
      done
    | 43 ->
      let a = row_f bp w (Array.unsafe_get code (q + 1)) in
      let d = w.C.boxd.(Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (V.Vfloat (Array.unsafe_get a l))
      done
    | _ ->
      (* 44 BOXU *)
      let a = row_i bp w (Array.unsafe_get code (q + 1)) in
      let d = w.C.boxd.(Array.unsafe_get code (q + 3)) in
      for t = 0 to nact - 1 do
        let l = Array.unsafe_get lanes t in
        Array.unsafe_set d l (V.Vbuf (Array.unsafe_get a l))
      done
  done

(* One warp atomic (ATOMIC), lane by lane in mask order, exactly as
   {!Compile}'s unboxed atomic paths: charge [atomic_cycles * n], then
   per lane read-modify-write the element and record its address, then
   one {!C.account}.  Payload arrays are touched directly when the index
   is in range; otherwise the read goes through [Mem], which raises the
   identical Out_of_bounds (the write then reuses the checked index).
   The [old] value is written per lane straight into its row: a lane
   reads only its own operand lanes, and a raise aborts the launch, so
   nothing can observe the difference from a post-loop copy. *)
let exec_atomic bp c (w : C.warp) (code : int array) p m =
  let op = code.(p + 2) in
  let ids = row_i bp w code.(p + 3) in
  let ii = row_i bp w code.(p + 4) in
  let dk = code.(p + 7) in
  let n = pc m in
  chg c (c.C.cfg.Cfg.atomic_cycles * n) m;
  let addrs = bp.addrs in
  let k = ref 0 in
  let mm = ref m in
  let b = ref (Mem.get_buf c.C.mem (Array.unsafe_get ids (lb m))) in
  let boxed = if dk = 2 then w.C.boxd.(code.(p + 8)) else [||] in
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
          let nb = Mem.get_buf c.C.mem id in
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
      (match bf.Mem.data with
      | Mem.I a -> Array.unsafe_set a idx nv
      | Mem.F a -> Array.unsafe_set a idx (Float.of_int nv));
      if dk = 1 then Array.unsafe_set di l old
      else if dk = 2 then boxed.(l) <- V.Vint old;
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
          let nb = Mem.get_buf c.C.mem id in
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
      | Mem.F a -> Array.unsafe_set a idx nv
      | Mem.I a -> Array.unsafe_set a idx (Float.to_int nv));
      if dk = 1 then Array.unsafe_set df l old
      else if dk = 2 then boxed.(l) <- V.Vfloat old;
      Array.unsafe_set addrs !k (bf.Mem.base + (idx * Mem.elem_bytes));
      incr k;
      mm := !mm land (!mm - 1)
    done
  end;
  C.account c w addrs !k

(* The dispatch loop: one region [pc0, stop) of one warp under region
   mask [rmask].  Control flow recurses with freshly scanned sub-masks,
   exactly like the closure tier. *)
let rec exec bp c (w : C.warp) pc0 stop rmask =
  let code = bp.code in
  let cur = ref rmask in
  let p = ref pc0 in
  while !p < stop do
    match Array.unsafe_get code !p with
    | 0 ->
      (* FILTER *)
      cur := rmask land lnot w.C.returned;
      if !cur = 0 then p := stop else incr p
    | 1 ->
      (* RET *)
      w.C.returned <- w.C.returned lor !cur;
      incr p
    | 2 ->
      (* CALL: closure fallback; it re-filters its own mask *)
      bp.stmts.(code.(!p + 1)) c w !cur;
      p := !p + 2
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
        let m0 = !cm land lnot w.C.returned in
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
      let var = w.C.ints.(code.(q + 1)) in
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
        let m0 = !cm land lnot w.C.returned in
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
      chg c c.C.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      (* Cache the handle across lanes (loads are usually same-buffer)
         and read the payload array directly; the bounds-failure path
         re-reads through [Mem] so the raise is identical. *)
      let b = ref (Mem.get_buf c.C.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.C.mem id in
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
      C.account c w addrs !k;
      p := q + 4
    | 9 ->
      (* LOADF *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let df = row_f bp w code.(q + 3) in
      let m = !cur in
      chg c c.C.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.C.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.C.mem id in
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
      C.account c w addrs !k;
      p := q + 4
    | 10 ->
      (* STOREI *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let xi = row_i bp w code.(q + 3) in
      let m = !cur in
      chg c c.C.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.C.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.C.mem id in
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
      C.account c w addrs !k;
      p := q + 4
    | 11 ->
      (* STOREF *)
      let q = !p in
      let ids = row_i bp w code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let xf = row_f bp w code.(q + 3) in
      let m = !cur in
      chg c c.C.cfg.Cfg.mem_issue_cycles m;
      let addrs = bp.addrs in
      let k = ref 0 in
      let mm = ref m in
      let b = ref (Mem.get_buf c.C.mem (Array.unsafe_get ids (lb m))) in
      while !mm <> 0 do
        let l = lb !mm in
        let id = Array.unsafe_get ids l in
        let bf =
          let bf = !b in
          if id = bf.Mem.id then bf
          else begin
            let nb = Mem.get_buf c.C.mem id in
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
      C.account c w addrs !k;
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
        di.(l) <- Mem.buf_length (Mem.get_buf c.C.mem ids.(l));
        mm := !mm land (!mm - 1)
      done;
      p := q + 3
    | 13 ->
      (* SHLOAD *)
      let q = !p in
      let ii = row_i bp w code.(q + 1) in
      let di = row_i bp w code.(q + 2) in
      let arr = c.C.shared.(code.(q + 3)) in
      let name = bp.shnames.(code.(q + 4)) in
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
      C.account_shared c idxs !k;
      p := q + 5
    | 14 ->
      (* SHSTORE *)
      let q = !p in
      let kind = code.(q + 1) in
      let ii = row_i bp w code.(q + 2) in
      let arr = c.C.shared.(code.(q + 4)) in
      let name = bp.shnames.(code.(q + 5)) in
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
      C.account_shared c idxs !k;
      p := q + 6
    | 15 ->
      (* ATOMIC *)
      exec_atomic bp c w code !p !cur;
      p := !p + 9
    | 16 ->
      (* MALLOC: the allocation itself is {!C.malloc_value}, shared with
         the closure tier *)
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
        C.malloc_value c ~kname:bp.kname ~site:code.(q + 2) scope ~mask:m n
      in
      if code.(q + 4) = 0 then
        Array.fill (row_i bp w code.(q + 5)) 0 32 (V.as_buf v)
      else Array.fill w.C.boxd.(code.(q + 5)) 0 32 v;
      p := q + 6
    | 17 ->
      (* SHLOADN: every value in the array is a number, so the float
         coercion the consumer would apply lane by lane cannot raise and
         is applied here instead *)
      let q = !p in
      let ii = row_i bp w code.(q + 1) in
      let df = row_f bp w code.(q + 2) in
      let arr = c.C.shared.(code.(q + 3)) in
      let name = bp.shnames.(code.(q + 4)) in
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
      C.account_shared c idxs !k;
      p := q + 5
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

(* A lowered operand: the kind mirrors {!Compile}'s cexpr typing exactly
   ([Ri]/[Rf]/[Ru] for Xi/Xf/Xu).  [Rn] is the one boxed (Xb) form the
   bytecode keeps: a read of a numeric shared array, held as its float
   coercion — exact for consumers that coerce it to float (float
   arithmetic and comparisons against an unboxed operand), and a
   [Fallback] everywhere else.  Anything else that would be boxed (or
   that the bytecode has no native form for) raises [Fallback] and the
   whole statement takes the closure path. *)
type reg = Ri of int | Rf of int | Ru of Ty.elem * int | Rn of int

exception Fallback

type lstate = {
  env : C.env;
  code : buf;
  mutable stmts : (C.cctx -> C.warp -> int -> unit) list;  (* rev *)
  mutable tags : string list;  (* rev, aligned with [stmts] *)
  mutable nstmts : int;
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
  fuse : bool;
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
  if not l.fuse then flush l;
  if rk <> 0 && l.pend_raise <> 0 && l.pend_raise <> rk then flush l;
  bpush l.pend op;
  bpush l.pend a;
  bpush l.pend b;
  bpush l.pend d;
  l.pend_n <- l.pend_n + 1;
  l.pend_ch <- l.pend_ch + ch;
  if rk <> 0 then l.pend_raise <- rk;
  if not l.fuse then flush l

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

(* Charge-free coercions, mirroring {!Compile}'s int_of_safe /
   float_of_safe (reordering them after the other operand is
   unobservable: no charge, no raise). *)
let int_free l = function
  | Ri r -> r
  | Rf r ->
    let d = ntmpi l in
    push_q l 37 r 0 d ~rk:0 ~ch:0;
    d
  | Ru _ | Rn _ -> raise Fallback

let flt_free l = function
  | Rf r -> r
  | Ri r ->
    let d = ntmpf l in
    push_q l 36 r 0 d ~rk:0 ~ch:0;
    d
  | Ru _ | Rn _ -> raise Fallback

(* [flt_free] for the consumers that coerce a boxed operand lane by lane
   with [V.as_float] ({!Compile}'s float_arith / float_cmp getters):
   there an [Rn] is already its coercion. *)
let flt_num l = function Rn r -> r | r -> flt_free l r

let is_rf = function Rf _ -> true | _ -> false

let rec lx l (e : A.expr) : reg =
  match e with
  | A.Const (V.Vint i) -> Ri (cint l i)
  | A.Const (V.Vfloat f) -> Rf (cflt l f)
  | A.Const (V.Vbuf id) -> Ru (Ty.Eany, cint l id)
  | A.Var v ->
    if v.A.slot < 0 then raise Fallback;
    (match (l.env.C.storage.(v.A.slot), l.env.C.slots.(v.A.slot)) with
    | C.Si r, Ty.St_buf el -> Ru (el, r)
    | C.Si r, _ -> Ri r
    | C.Sf r, _ -> Rf r
    | C.Sb _, _ -> raise Fallback)
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
    | _ -> raise Fallback)

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
    | Ru _ | Rn _ -> raise Fallback)
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
    | Ru _ | Rn _ -> raise Fallback)
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
    | Ru _ | Rn _ -> raise Fallback)
  | A.To_int -> (
    match lx l a with
    | Ri r ->
      push_op l 40 0 0 0;
      Ri r
    | Rf r ->
      let d = ntmpi l in
      push_op l 35 r 0 d;
      Ri d
    | Ru _ | Rn _ -> raise Fallback)

and lx_andor l ~is_and a b =
  let ra = lx l a in
  let ak, ar =
    match ra with
    | Ri r -> (0, r)
    | Rf r -> (1, r)
    | Ru _ | Rn _ -> raise Fallback
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
    | Ru _ | Rn _ -> raise Fallback
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
  (* A numeric boxed read ([Rn]) takes the float path exactly where
     {!Compile} coerces its boxed operand with [V.as_float]: arithmetic
     beside a float, comparison beside any unboxed number. *)
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
    | _ -> raise Fallback
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
    | _ -> raise Fallback
  in
  let int_ctx iop =
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_op l iop x y d;
      Ri d
    | _ -> raise Fallback
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
      | _ -> raise Fallback)
  | A.Mod -> (
    match (ra, rb) with
    | Ri x, Ri y ->
      let d = ntmpi l in
      push_q l 4 x y d ~rk:2 ~ch:1;
      Ri d
    | _ -> raise Fallback)
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
  | _ -> raise Fallback

and lx_shload l name ie =
  match Hashtbl.find_opt l.env.C.shindex name with
  | None -> raise Fallback
  | Some idx -> (
    match l.env.C.shtys.(idx) with
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
    | Ty.Sh_boxed when l.env.C.shnum.(idx) ->
      let ir = int_free l (lx l ie) in
      flush l;
      let d = ntmpf l in
      bpush l.code 17;
      bpush l.code ir;
      bpush l.code d;
      bpush l.code idx;
      bpush l.code (name_id l name);
      Rn d
    | Ty.Sh_boxed -> raise Fallback)

(* --- statement lowering --------------------------------------------------- *)

let begin_stmt l =
  if l.dirty then begin
    flush l;
    bpush l.code 0;
    l.dirty <- false
  end;
  l.ti <- 0;
  l.tf <- 0

(* Census tag of a statement kind, recorded per [CALL] slot. *)
let stmt_tag (env : C.env) (s : A.stmt) =
  match s with
  | A.Let (v, _) -> (
    if v.A.slot < 0 then "let"
    else
      match env.C.storage.(v.A.slot) with
      | C.Sb _ -> "let-boxed"
      | _ -> "let")
  | A.Store _ -> "store"
  | A.Shared_store _ -> "shared-store"
  | A.If _ -> "if"
  | A.While _ -> "while"
  | A.For _ -> "for"
  | A.Atomic _ -> "atomic"
  | A.Launch _ -> "launch"
  | A.Device_sync -> "devsync"
  | A.Malloc _ -> "malloc"
  | A.Free _ -> "free"
  | A.Return -> "return"
  | A.Syncthreads | A.Grid_barrier -> "barrier"

(* Closure fallback for one statement.  {!Compile.compile_stmt} may
   raise Not_compilable here; it propagates out of the whole lowering
   and the kernel takes the reference walker, exactly as the closure
   tier would have decided. *)
let emit_call l s =
  flush l;
  let f = C.compile_stmt l.env s in
  l.stmts <- f :: l.stmts;
  l.tags <- stmt_tag l.env s :: l.tags;
  bpush l.code 2;
  bpush l.code l.nstmts;
  l.nstmts <- l.nstmts + 1;
  l.dirty <- true

let rec ls l (s : A.stmt) =
  let snap =
    ( l.code.len,
      l.nstmts,
      l.pend.len,
      l.pend_n,
      l.pend_ch,
      l.pend_raise,
      l.ti,
      l.tf,
      l.dirty )
  in
  try
    begin_stmt l;
    ls_native l s
  with Fallback ->
    let cl, ns, pl, pn, pch, pr, ti, tf, d = snap in
    l.code.len <- cl;
    while l.nstmts > ns do
      l.stmts <- List.tl l.stmts;
      l.tags <- List.tl l.tags;
      l.nstmts <- l.nstmts - 1
    done;
    l.pend.len <- pl;
    l.pend_n <- pn;
    l.pend_ch <- pch;
    l.pend_raise <- pr;
    l.ti <- ti;
    l.tf <- tf;
    l.dirty <- d;
    emit_call l s

and ls_native l (s : A.stmt) =
  match s with
  | A.Let (v, e) -> (
    if v.A.slot < 0 then raise Fallback;
    match l.env.C.storage.(v.A.slot) with
    | C.Si r -> (
      match lx l e with
      | Ri x | Ru (_, x) -> push_op l 38 x 0 r
      | Rf _ | Rn _ -> raise Fallback)
    | C.Sf r -> (
      match lx l e with
      | Rf x -> push_op l 39 x 0 r
      | _ -> raise Fallback)
    | C.Sb r -> (
      (* boxed destination: box each lane by the operand's static kind *)
      match lx l e with
      | Ri x -> push_op l 42 x 0 r
      | Rf x -> push_op l 43 x 0 r
      | Ru (_, x) -> push_op l 44 x 0 r
      | Rn _ -> raise Fallback))
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
    | _ -> raise Fallback)
  | A.Shared_store (name, ie, xe) -> (
    match Hashtbl.find_opt l.env.C.shindex name with
    | None -> raise Fallback
    | Some idx ->
      let ir = int_free l (lx l ie) in
      let kind, xr =
        match lx l xe with
        | Ri r -> (0, r)
        | Rf r -> (1, r)
        | Ru (_, r) -> (2, r)
        | Rn _ -> raise Fallback
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
      | Ru _ | Rn _ -> raise Fallback
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
      | Ru _ | Rn _ -> raise Fallback
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
    if v.A.slot < 0 then raise Fallback;
    match l.env.C.storage.(v.A.slot) with
    | C.Si var -> (
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
      | _ -> raise Fallback)
    | _ -> raise Fallback)
  | A.Return ->
    flush l;
    bpush l.code 1;
    l.dirty <- true
  | A.Atomic { op; buf = be; idx = ie; operand = oe; compare = ce; old } ->
    ls_atomic l op be ie oe ce old
  | A.Malloc { dst; count; scope; site } ->
    if site < 0 || dst.A.slot < 0 then raise Fallback;
    let dk, d =
      match l.env.C.storage.(dst.A.slot) with
      | C.Si r -> (0, r)
      | C.Sb r -> (1, r)
      | C.Sf _ -> raise Fallback (* the handle cannot coerce to float *)
    in
    let nr = int_free l (lx l count) in
    flush l;
    bpush l.code 16;
    bpush l.code
      (match scope with A.Per_warp -> 0 | A.Per_block -> 1 | A.Per_grid -> 2);
    bpush l.code site;
    bpush l.code nr;
    bpush l.code dk;
    bpush l.code d
  | A.Launch _ | A.Device_sync | A.Free _ | A.Syncthreads | A.Grid_barrier ->
    raise Fallback

(* Atomics lower natively exactly where {!Compile.compile_atomic} takes
   an unboxed path with the same observable semantics: an int buffer
   with an int operand (and an int-coercible compare for CAS), or a float
   buffer with a numeric operand (CAS compares [Float.to_int] of the old
   value with the int-coerced compare, as the boxed path does).  The
   [old] destination must be the buffer's unboxed kind or boxed.  Every
   other shape keeps the closure fallback, and with it the closure tier's
   coverage and error identity. *)
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
      if v.A.slot < 0 then raise Fallback;
      match l.env.C.storage.(v.A.slot) with
      | C.Sb r -> (2, r)
      | st -> (
        match unboxed st with Some r -> (1, r) | None -> raise Fallback))
  in
  let kind, br, orr, cr, (dk, d) =
    match (rb, rc) with
    | Ru (Ty.Eint, br), _ ->
      let orr = match ro with Ri r -> r | _ -> raise Fallback in
      let cr =
        match rc with
        | Some rc -> int_free l rc
        | None -> if is_cas then raise Fallback else 0
      in
      (0, br, orr, cr, dest (function C.Si r -> Some r | _ -> None))
    | Ru (Ty.Efloat, br), None when not is_cas ->
      (1, br, flt_free l ro, 0, dest (function C.Sf r -> Some r | _ -> None))
    | Ru (Ty.Efloat, br), Some rc when is_cas ->
      let orr = flt_free l ro in
      (1, br, orr, int_free l rc, dest (function C.Sf r -> Some r | _ -> None))
    | _ -> raise Fallback
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

(* --- entry points --------------------------------------------------------- *)

(* Warp register-plane row counts, recovered from the slot storage map
   (the planes themselves are sized the same way in [Compile]). *)
let plane_rows (env : C.env) =
  let ni = ref 0 and nf = ref 0 and nb = ref 0 in
  Array.iter
    (function
      | C.Si r -> if r + 1 > !ni then ni := r + 1
      | C.Sf r -> if r + 1 > !nf then nf := r + 1
      | C.Sb r -> if r + 1 > !nb then nb := r + 1)
    env.C.storage;
  (!ni, !nf, !nb)

let lower (env : C.env) (stmts : A.stmt list) : bprog * stream =
  let l =
    {
      env;
      code = bmake ();
      stmts = [];
      tags = [];
      nstmts = 0;
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
      dirty = true;  (* run entry: earlier segments may have returned *)
      fuse = !fusion;
    }
  in
  List.iter (ls l) stmts;
  flush l;
  let bp =
    {
      code = Array.sub l.code.a 0 l.code.len;
      stmts = Array.of_list (List.rev l.stmts);
      ci =
        Array.of_list (List.rev_map (fun v -> Array.make 32 v) l.icsts);
      cf =
        Array.of_list (List.rev_map (fun v -> Array.make 32 v) l.fcsts);
      tmpi = Array.init l.max_ti (fun _ -> Array.make 32 0);
      tmpf = Array.init l.max_tf (fun _ -> Array.make 32 0.0);
      shnames = Array.of_list (List.rev l.snames);
      kname = env.C.kname;
      lanes = Array.make 32 0;
      addrs = Array.make 32 0;
    }
  in
  let ni, nf, nb = plane_rows env in
  let sm =
    {
      s_kname = env.C.kname;
      s_code = bp.code;
      s_nstmts = l.nstmts;
      s_nic = l.nic;
      s_nfc = l.nfc;
      s_ntmpi = l.max_ti;
      s_ntmpf = l.max_tf;
      s_nint = ni;
      s_nflt = nf;
      s_nbox = nb;
      s_nsites = env.C.nsites;
      s_nshared = Array.length env.C.shtys;
      s_nnames = l.nnames;
      s_calls = Array.of_list (List.rev l.tags);
    }
  in
  (bp, sm)

let lower_run (env : C.env) (stmts : A.stmt list) :
    C.cctx -> C.warp -> unit =
  let bp, _ = lower env stmts in
  let len = Array.length bp.code in
  fun c w -> exec bp c w 0 len (C.full_mask w)

let compile_kernel (k : Dpc_kir.Kernel.t) : C.ckernel option =
  C.compile_kernel ~run_lower:lower_run k

let streams_of_kernel (k : Dpc_kir.Kernel.t) : stream list option =
  let acc = ref [] in
  let capture env stmts =
    let bp, sm = lower env stmts in
    acc := sm :: !acc;
    let len = Array.length bp.code in
    fun c w -> exec bp c w 0 len (C.full_mask w)
  in
  match C.compile_kernel ~run_lower:capture k with
  | None -> None
  | Some _ -> Some (List.rev !acc)
