(** One-time lowering of kernel IR into OCaml closures (the interpreter's
    fast path).

    The reference walker in {!Interp} re-traverses the AST for every
    warp x instruction and allocates a fresh 32-element boxed {!V.t}
    vector per expression node.  This module compiles each kernel body
    once per session into a tree of closures over a typed per-warp
    {e register plane}:

    - frame slots proven monomorphic by {!Dpc_kir.Typing} live in raw
      [int array] / [float array] lanes (buffer handles are ints);
      everything else stays in boxed {!V.t} lanes;
    - every expression node owns a 32-element scratch vector allocated at
      compile time, so steady-state evaluation performs no heap
      allocation on monomorphic kernels;
    - lane iteration is closure-free ([m land (m - 1)] plus the De Bruijn
      {!Runtime.lowest_bit}).

    Semantics are the reference walker's, charge for charge: the compiled
    code issues the same {!Runtime.charge} and {!Runtime.account_access}
    calls in the same order, so {!Trace} output is byte-identical (float
    accumulation order included).  Wherever an operand's static type
    cannot rule out a runtime type error, the compiled code falls back to
    the exact boxed per-lane application ({!Runtime.binop_apply} and
    friends) so error identity and ordering are preserved too.  Kernels
    (or launches) the compiler cannot handle fall back to the walker
    entirely: {!compile_kernel} returns [None], and {!args_ok} rejects
    argument lists whose runtime types contradict the inference. *)

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

let pc = R.popcount

let lb = R.lowest_bit

(* Raised (compile time only) when a kernel uses something the fast path
   does not support; the caller falls back to the reference walker. *)
exception Not_compilable

(* --- register plane ----------------------------------------------------- *)

(** Where a frame slot lives: [Si]/[Sf] are rows of the unboxed int/float
    planes (buffer handles are [Si] ids), [Sb] rows of the boxed plane. *)
type storage = Si of int | Sf of int | Sb of int

type warp = {
  widx : int;
  base_lane : int;  (** threadIdx.x of lane 0 *)
  nlanes : int;  (** threads in this warp (last warp may be partial) *)
  ints : int array array;  (** indexed [row].[lane] *)
  flts : float array array;
  boxd : V.t array array;
  mutable returned : int;  (** bitmask of lanes that executed [return] *)
}

let full_mask w = (1 lsl w.nlanes) - 1

let live_mask w = full_mask w land lnot w.returned

(* Per-block execution context, mirroring Interp's bctx. *)
type cctx = {
  cfg : Cfg.t;
  mem : Mem.t;
  alloc : Alloc.t;
  mm : Memmodel.t;  (** memory-hierarchy model: the single accounting path *)
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
  flush_deep : R.pending_launch -> unit;
      (** run one pending launch now, draining its subtree *)
  add_alloc_cycles : int -> unit;  (** session alloc_cycles accumulator *)
}

let charge c cycles active = R.charge c.seg cycles active

let account c (w : warp) addrs n =
  Memmodel.account_access c.mm ~seg:c.seg ~warp:w.widx addrs n

let account_shared c idxs n = Memmodel.account_shared c.mm ~seg:c.seg idxs n

(* --- compiled expressions ----------------------------------------------- *)

(* A compiled expression returns its 32-wide result as a raw array; the
   constructor records its static type ([Xu] carries buffer ids).  The
   returned array is either the node's own compile-time scratch or a
   register row -- consumers read lanes inside their mask and never write
   into operand arrays. *)
type cexpr =
  | Xi of (cctx -> warp -> int -> int array)
  | Xu of Ty.elem * (cctx -> warp -> int -> int array)
  | Xf of (cctx -> warp -> int -> float array)
  | Xb of (cctx -> warp -> int -> V.t array)

(* Lane getters: deferred per-lane coercions that reproduce V.as_int /
   V.as_float / V.truthy exactly (including the exception and its
   message) without boxing on the monomorphic cases. *)

type igett = Igi of int array | Igf of float array | Igu of int array
           | Igb of V.t array

let[@inline] ig g l =
  match g with
  | Igi a -> a.(l)
  | Igf a -> Float.to_int a.(l)
  | Igu a -> V.as_int (V.Vbuf a.(l))
  | Igb a -> V.as_int a.(l)

let irun = function
  | Xi f -> fun c w m -> Igi (f c w m)
  | Xu (_, f) -> fun c w m -> Igu (f c w m)
  | Xf f -> fun c w m -> Igf (f c w m)
  | Xb f -> fun c w m -> Igb (f c w m)

type fgett = Fgi of int array | Fgf of float array | Fgu of int array
           | Fgb of V.t array

let[@inline] fg g l =
  match g with
  | Fgi a -> Float.of_int a.(l)
  | Fgf a -> a.(l)
  | Fgu a -> V.as_float (V.Vbuf a.(l))
  | Fgb a -> V.as_float a.(l)

let frun = function
  | Xi f -> fun c w m -> Fgi (f c w m)
  | Xu (_, f) -> fun c w m -> Fgu (f c w m)
  | Xf f -> fun c w m -> Fgf (f c w m)
  | Xb f -> fun c w m -> Fgb (f c w m)

type tgett = Tgi of int array | Tgf of float array | Tgu of int array
           | Tgb of V.t array

let[@inline] tg g l =
  match g with
  | Tgi a -> a.(l) <> 0
  | Tgf a -> a.(l) <> 0.0
  | Tgu a -> V.truthy (V.Vbuf a.(l))
  | Tgb a -> V.truthy a.(l)

let trun = function
  | Xi f -> fun c w m -> Tgi (f c w m)
  | Xu (_, f) -> fun c w m -> Tgu (f c w m)
  | Xf f -> fun c w m -> Tgf (f c w m)
  | Xb f -> fun c w m -> Tgb (f c w m)

type vgett = Vgi of int array | Vgf of float array | Vgu of int array
           | Vgb of V.t array

let[@inline] vg g l =
  match g with
  | Vgi a -> V.Vint a.(l)
  | Vgf a -> V.Vfloat a.(l)
  | Vgu a -> V.Vbuf a.(l)
  | Vgb a -> a.(l)

let vrun = function
  | Xi f -> fun c w m -> Vgi (f c w m)
  | Xu (_, f) -> fun c w m -> Vgu (f c w m)
  | Xf f -> fun c w m -> Vgf (f c w m)
  | Xb f -> fun c w m -> Vgb (f c w m)

(* Allocation-free coercions for the hot paths.  [int_of_safe] /
   [float_of_safe] produce a raw-array evaluator when the coercion cannot
   raise (int/float sources); raising sources (buffers, boxed) return
   [None] and the consumer keeps the exact per-lane getter path. *)

let int_of_safe = function
  | Xi f -> Some f
  | Xf f ->
    let res = Array.make 32 0 in
    Some
      (fun c w mask ->
        let a = f c w mask in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- Float.to_int a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | Xu _ | Xb _ -> None

let float_of_safe = function
  | Xf f -> Some f
  | Xi f ->
    let res = Array.make 32 0.0 in
    Some
      (fun c w mask ->
        let a = f c w mask in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- Float.of_int a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | Xu _ | Xb _ -> None

(* Evaluate a condition under [mask] and return the mask of lanes where it
   is truthy.  When [charge_node] the node's own 1-cycle charge is issued
   between operand evaluation and the scan, exactly where the walker
   charges branch conditions; the b-side of And/Or charges nothing. *)
let compile_truth ~charge_node (ce : cexpr) : cctx -> warp -> int -> int =
  match ce with
  | Xi f ->
    fun c w mask ->
      let a = f c w mask in
      if charge_node then charge c 1 (pc mask);
      let mt = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        if a.(l) <> 0 then mt := !mt lor (1 lsl l);
        m := !m land (!m - 1)
      done;
      !mt
  | Xf f ->
    fun c w mask ->
      let a = f c w mask in
      if charge_node then charge c 1 (pc mask);
      let mt = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        if a.(l) <> 0.0 then mt := !mt lor (1 lsl l);
        m := !m land (!m - 1)
      done;
      !mt
  | Xu (_, f) ->
    fun c w mask ->
      let a = f c w mask in
      if charge_node then charge c 1 (pc mask);
      let mt = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        if V.truthy (V.Vbuf a.(l)) then mt := !mt lor (1 lsl l);
        m := !m land (!m - 1)
      done;
      !mt
  | Xb f ->
    fun c w mask ->
      let a = f c w mask in
      if charge_node then charge c 1 (pc mask);
      let mt = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        if V.truthy a.(l) then mt := !mt lor (1 lsl l);
        m := !m land (!m - 1)
      done;
      !mt

(* --- compile-time environment ------------------------------------------- *)

type env = {
  kname : string;
  slots : Ty.slot_ty array;
  storage : storage array;
  shindex : (string, int) Hashtbl.t;  (** shared name -> decl index *)
  shtys : Ty.sh_ty array;
  shnum : bool array;
      (** shared arrays that only ever hold numbers (every store into
          them is statically int or float), so a boxed read of one
          coerces to int/float without a possible type error *)
  nsites : int;  (** [Malloc] sites of the kernel *)
  run_lower : (env -> A.stmt list -> cctx -> warp -> unit) option;
      (** alternative lowering for barrier-free statement runs (the
          bytecode tier installs itself here); [None] lowers runs to
          closure arrays *)
}

let get_buf_v env c (v : V.t) =
  match v with
  | V.Vbuf id -> Mem.get_buf c.mem id
  | _ -> err "kernel %s: %s used as a buffer" env.kname (V.to_string v)

(* Can an operand pair raise a type error on both sides?  If so the exact
   raise order is binop_apply's, so we must use the boxed path. *)
let may_raise = function Xu _ | Xb _ -> true | Xi _ | Xf _ -> false

let is_f = function Xf _ -> true | _ -> false

(* --- expression compilation --------------------------------------------- *)

let rec compile_expr env (e : A.expr) : cexpr =
  match e with
  | A.Const (V.Vint i) ->
    let r = Array.make 32 i in
    Xi (fun _ _ _ -> r)
  | A.Const (V.Vfloat f) ->
    let r = Array.make 32 f in
    Xf (fun _ _ _ -> r)
  | A.Const (V.Vbuf id) ->
    let r = Array.make 32 id in
    Xu (Ty.Eany, fun _ _ _ -> r)
  | A.Var v ->
    if v.A.slot < 0 then raise Not_compilable;
    (match (env.storage.(v.A.slot), env.slots.(v.A.slot)) with
    | Si r, Ty.St_buf el -> Xu (el, fun _ w _ -> w.ints.(r))
    | Si r, _ -> Xi (fun _ w _ -> w.ints.(r))
    | Sf r, _ -> Xf (fun _ w _ -> w.flts.(r))
    | Sb r, _ -> Xb (fun _ w _ -> w.boxd.(r)))
  | A.Special sp ->
    let res = Array.make 32 0 in
    let fill =
      match sp with
      | A.Thread_idx -> fun _ w l -> w.base_lane + l
      | A.Block_idx -> fun c _ _ -> c.block_idx
      | A.Block_dim -> fun c _ _ -> c.block_dim
      | A.Grid_dim -> fun c _ _ -> c.grid_dim
      | A.Lane_id -> fun _ _ l -> l
      | A.Warp_id -> fun _ w _ -> w.widx
      | A.Warp_size -> fun c _ _ -> c.cfg.Cfg.warp_size
    in
    Xi
      (fun c w mask ->
        charge c 1 (pc mask);
        for l = 0 to w.nlanes - 1 do
          res.(l) <- fill c w l
        done;
        res)
  | A.Unop (op, a) -> compile_unop env op (compile_expr env a)
  | A.Binop (A.And, a, b) ->
    compile_andor ~is_and:true (compile_expr env a) (compile_expr env b)
  | A.Binop (A.Or, a, b) ->
    compile_andor ~is_and:false (compile_expr env a) (compile_expr env b)
  | A.Binop (op, a, b) ->
    compile_binop env op (compile_expr env a) (compile_expr env b)
  | A.Load (be, ie) -> compile_load env (compile_expr env be) ie
  | A.Shared_load (name, ie) ->
    let gi = irun (compile_expr env ie) in
    (match Hashtbl.find_opt env.shindex name with
    | None ->
      Xb
        (fun c w mask ->
          let _g = gi c w mask in
          charge c 1 (pc mask);
          err "kernel %s: undeclared shared array %s" env.kname name)
    | Some idx ->
      let oob arr i =
        err "kernel %s: shared array %s[%d] out of bounds (size %d)"
          env.kname name i (Array.length arr)
      in
      (match env.shtys.(idx) with
      | Ty.Sh_bot | Ty.Sh_int ->
        (* every value ever stored is an int, so unboxing is exact *)
        let res = Array.make 32 0 in
        let sidx = Array.make 32 0 in
        Xi
          (fun c w mask ->
            let g = gi c w mask in
            charge c 1 (pc mask);
            let arr = c.shared.(idx) in
            let k = ref 0 in
            let m = ref mask in
            while !m <> 0 do
              let l = lb !m in
              let i = ig g l in
              if i < 0 || i >= Array.length arr then oob arr i;
              sidx.(!k) <- i;
              incr k;
              res.(l) <- V.as_int arr.(i);
              m := !m land (!m - 1)
            done;
            account_shared c sidx !k;
            res)
      | Ty.Sh_boxed ->
        let res = Array.make 32 (V.Vint 0) in
        let sidx = Array.make 32 0 in
        Xb
          (fun c w mask ->
            let g = gi c w mask in
            charge c 1 (pc mask);
            let arr = c.shared.(idx) in
            let k = ref 0 in
            let m = ref mask in
            while !m <> 0 do
              let l = lb !m in
              let i = ig g l in
              if i < 0 || i >= Array.length arr then oob arr i;
              sidx.(!k) <- i;
              incr k;
              res.(l) <- arr.(i);
              m := !m land (!m - 1)
            done;
            account_shared c sidx !k;
            res)))
  | A.Buf_len be -> (
    let cb = compile_expr env be in
    let res = Array.make 32 0 in
    match cb with
    | Xu (_, fb) ->
      Xi
        (fun c w mask ->
          let ids = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- Mem.buf_length (Mem.get_buf c.mem ids.(l));
            m := !m land (!m - 1)
          done;
          res)
    | _ ->
      let gb = vrun cb in
      Xi
        (fun c w mask ->
          let g = gb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- Mem.buf_length (get_buf_v env c (vg g l));
            m := !m land (!m - 1)
          done;
          res))

and compile_unop env op (ca : cexpr) : cexpr =
  ignore env;
  match (op, ca) with
  | A.Neg, Xi fa ->
    let res = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- -a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | A.Neg, Xf fa ->
    let res = Array.make 32 0.0 in
    Xf
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- -.a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | A.Neg, (Xu _ as x) ->
    (* always raises (Neg coerces non-ints via as_float); typed E_float *)
    let ga = frun x in
    let res = Array.make 32 0.0 in
    Xf
      (fun c w mask ->
        let g = ga c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- -.fg g l;
          m := !m land (!m - 1)
        done;
        res)
  | A.Neg, Xb fa ->
    let res = Array.make 32 (V.Vint 0) in
    Xb
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- R.unop_apply A.Neg a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | A.Not, x ->
    let ga = trun x in
    let res = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let g = ga c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- (if tg g l then 0 else 1);
          m := !m land (!m - 1)
        done;
        res)
  | A.To_float, Xf fa ->
    Xf
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        a)
  | A.To_float, Xi fa ->
    let res = Array.make 32 0.0 in
    Xf
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- Float.of_int a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | A.To_float, x ->
    let ga = frun x in
    let res = Array.make 32 0.0 in
    Xf
      (fun c w mask ->
        let g = ga c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- fg g l;
          m := !m land (!m - 1)
        done;
        res)
  | A.To_int, Xi fa ->
    Xi
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        a)
  | A.To_int, Xf fa ->
    let res = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let a = fa c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- Float.to_int a.(l);
          m := !m land (!m - 1)
        done;
        res)
  | A.To_int, x ->
    let ga = irun x in
    let res = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let g = ga c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- ig g l;
          m := !m land (!m - 1)
        done;
        res)

(* Short-circuit And/Or.  [b] is evaluated only on the lanes where [a]
   decided nothing; out-of-sub-mask lanes take the short-circuit value.
   The result scratch is reset on every lane of [mask] first, because
   (unlike the walker's fresh zeroed vectors) scratch is reused. *)
and compile_andor ~is_and ca cb : cexpr =
  let ta = compile_truth ~charge_node:true ca in
  let tb = compile_truth ~charge_node:false cb in
  let res = Array.make 32 0 in
  let default = if is_and then 0 else 1 in
  Xi
    (fun c w mask ->
      let mt_a = ta c w mask in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        res.(l) <- default;
        m := !m land (!m - 1)
      done;
      (* the short-circuit value stands where [a] decided; [b] runs on the
         rest *)
      let sub = if is_and then mt_a else mask land lnot mt_a in
      if sub <> 0 then begin
        let mt_b = tb c w sub in
        let flip = if is_and then mt_b else sub land lnot mt_b in
        let v = if is_and then 1 else 0 in
        let m = ref flip in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- v;
          m := !m land (!m - 1)
        done
      end;
      res)

and compile_binop env op ca cb : cexpr =
  ignore env;
  let int2 iop =
    match (ca, cb) with
    | Xi fa, Xi fb ->
      let res = Array.make 32 0 in
      Some
        (Xi
           (fun c w mask ->
             let a = fa c w mask in
             let b = fb c w mask in
             charge c 1 (pc mask);
             let m = ref mask in
             while !m <> 0 do
               let l = lb !m in
               res.(l) <- iop a.(l) b.(l);
               m := !m land (!m - 1)
             done;
             res))
    | _ -> None
  in
  let float_arith fop =
    (* both operands reach as_float; safe when at most one can raise *)
    match (float_of_safe ca, float_of_safe cb) with
    | Some fa, Some fb ->
      let res = Array.make 32 0.0 in
      Xf
        (fun c w mask ->
          let a = fa c w mask in
          let b = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- fop a.(l) b.(l);
            m := !m land (!m - 1)
          done;
          res)
    | _ ->
      let ga = frun ca and gb = frun cb in
      let res = Array.make 32 0.0 in
      Xf
        (fun c w mask ->
          let a = ga c w mask in
          let b = gb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- fop (fg a l) (fg b l);
            m := !m land (!m - 1)
          done;
          res)
  in
  let float_cmp fop =
    match (float_of_safe ca, float_of_safe cb) with
    | Some fa, Some fb ->
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = fa c w mask in
          let b = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- (if fop a.(l) b.(l) then 1 else 0);
            m := !m land (!m - 1)
          done;
          res)
    | _ ->
      let ga = frun ca and gb = frun cb in
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = ga c w mask in
          let b = gb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            let x = fg a l in
            let y = fg b l in
            res.(l) <- (if fop x y then 1 else 0);
            m := !m land (!m - 1)
          done;
          res)
  in
  let boxed_arith () =
    let ga = vrun ca and gb = vrun cb in
    let res = Array.make 32 (V.Vint 0) in
    Xb
      (fun c w mask ->
        let a = ga c w mask in
        let b = gb c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- R.binop_apply op (vg a l) (vg b l);
          m := !m land (!m - 1)
        done;
        res)
  in
  let boxed_int () =
    (* ops whose result is statically int: unwrap binop_apply's Vint *)
    let ga = vrun ca and gb = vrun cb in
    let res = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let a = ga c w mask in
        let b = gb c w mask in
        charge c 1 (pc mask);
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          res.(l) <- V.as_int (R.binop_apply op (vg a l) (vg b l));
          m := !m land (!m - 1)
        done;
        res)
  in
  let arith iop fop =
    if is_f ca || is_f cb then float_arith fop
    else
      match int2 iop with Some x -> x | None -> boxed_arith ()
  in
  let cmp iop fop =
    match int2 (fun a b -> if iop a b then 1 else 0) with
    | Some x -> x
    | None ->
      if may_raise ca && may_raise cb then boxed_int () else float_cmp fop
  in
  (* int-context ops: a and b both go through as_int; binop_apply
     evaluates [as_int a OP as_int b] whose operand order is the
     compiler's, so when both sides could raise we defer to it *)
  let int_ctx iop =
    match int2 iop with
    | Some x -> x
    | None ->
      if may_raise ca && may_raise cb then boxed_int ()
      else
        let ga = irun ca and gb = irun cb in
        let res = Array.make 32 0 in
        Xi
          (fun c w mask ->
            let a = ga c w mask in
            let b = gb c w mask in
            charge c 1 (pc mask);
            let m = ref mask in
            while !m <> 0 do
              let l = lb !m in
              res.(l) <- iop (ig a l) (ig b l);
              m := !m land (!m - 1)
            done;
            res)
  in
  match op with
  | A.And | A.Or -> assert false (* routed to compile_andor *)
  | A.Add -> arith ( + ) ( +. )
  | A.Sub -> arith ( - ) ( -. )
  | A.Mul -> arith ( * ) ( *. )
  | A.Div -> (
    if is_f ca || is_f cb then float_arith ( /. )
    else
      match (ca, cb) with
      | Xi fa, Xi fb ->
        let res = Array.make 32 0 in
        Xi
          (fun c w mask ->
            let a = fa c w mask in
            let b = fb c w mask in
            charge c 1 (pc mask);
            let m = ref mask in
            while !m <> 0 do
              let l = lb !m in
              let d = b.(l) in
              if d = 0 then err "integer division by zero";
              res.(l) <- a.(l) / d;
              m := !m land (!m - 1)
            done;
            res)
      | _ -> boxed_arith ())
  | A.Mod -> (
    match (ca, cb) with
    | Xi fa, Xi fb ->
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = fa c w mask in
          let b = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            let d = b.(l) in
            if d = 0 then err "integer modulo by zero";
            res.(l) <- a.(l) mod d;
            m := !m land (!m - 1)
          done;
          res)
    | _ ->
      (* binop_apply evaluates the divisor first (explicit let), so the
         getter path can mirror it exactly for any operand kinds *)
      let ga = irun ca and gb = irun cb in
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = ga c w mask in
          let b = gb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            let d = ig b l in
            if d = 0 then err "integer modulo by zero";
            res.(l) <- ig a l mod d;
            m := !m land (!m - 1)
          done;
          res))
  | A.Min -> arith Int.min Float.min
  | A.Max -> arith Int.max Float.max
  | A.Eq -> (
    match (ca, cb) with
    | Xu (_, fa), Xu (_, fb) ->
      (* buffer identity: compare handles *)
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = fa c w mask in
          let b = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- (if a.(l) = b.(l) then 1 else 0);
            m := !m land (!m - 1)
          done;
          res)
    | _ -> cmp ( = ) ( = ))
  | A.Ne -> (
    match (ca, cb) with
    | Xu (_, fa), Xu (_, fb) ->
      let res = Array.make 32 0 in
      Xi
        (fun c w mask ->
          let a = fa c w mask in
          let b = fb c w mask in
          charge c 1 (pc mask);
          let m = ref mask in
          while !m <> 0 do
            let l = lb !m in
            res.(l) <- (if a.(l) <> b.(l) then 1 else 0);
            m := !m land (!m - 1)
          done;
          res)
    | _ -> cmp ( <> ) ( <> ))
  | A.Lt -> cmp ( < ) ( < )
  | A.Le -> cmp ( <= ) ( <= )
  | A.Gt -> cmp ( > ) ( > )
  | A.Ge -> cmp ( >= ) ( >= )
  | A.Shl -> int_ctx ( lsl )
  | A.Shr -> int_ctx ( asr )
  | A.Bit_and -> int_ctx ( land )
  | A.Bit_or -> int_ctx ( lor )
  | A.Bit_xor -> int_ctx ( lxor )

and compile_load env cb ie : cexpr =
  let ci = compile_expr env ie in
  match (cb, int_of_safe ci) with
  | Xu (Ty.Eint, fb), Some fi ->
    let res = Array.make 32 0 in
    let addrs = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let ids = fb c w mask in
        let g = fi c w mask in
        let n = pc mask in
        charge c c.cfg.Cfg.mem_issue_cycles n;
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let buf = Mem.get_buf c.mem ids.(l) in
          let idx = g.(l) in
          res.(l) <- Mem.read_int buf idx;
          addrs.(!k) <- Mem.addr buf idx;
          incr k;
          m := !m land (!m - 1)
        done;
        account c w addrs !k;
        res)
  | Xu (Ty.Efloat, fb), Some fi ->
    let res = Array.make 32 0.0 in
    let addrs = Array.make 32 0 in
    Xf
      (fun c w mask ->
        let ids = fb c w mask in
        let g = fi c w mask in
        let n = pc mask in
        charge c c.cfg.Cfg.mem_issue_cycles n;
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let buf = Mem.get_buf c.mem ids.(l) in
          let idx = g.(l) in
          res.(l) <- Mem.read_float buf idx;
          addrs.(!k) <- Mem.addr buf idx;
          incr k;
          m := !m land (!m - 1)
        done;
        account c w addrs !k;
        res)
  | Xu (Ty.Eint, fb), None ->
    (* raising index coercion: getter keeps the per-lane raise order *)
    let gi = irun ci in
    let res = Array.make 32 0 in
    let addrs = Array.make 32 0 in
    Xi
      (fun c w mask ->
        let ids = fb c w mask in
        let g = gi c w mask in
        let n = pc mask in
        charge c c.cfg.Cfg.mem_issue_cycles n;
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let buf = Mem.get_buf c.mem ids.(l) in
          let idx = ig g l in
          res.(l) <- Mem.read_int buf idx;
          addrs.(!k) <- Mem.addr buf idx;
          incr k;
          m := !m land (!m - 1)
        done;
        account c w addrs !k;
        res)
  | Xu (Ty.Efloat, fb), None ->
    let gi = irun ci in
    let res = Array.make 32 0.0 in
    let addrs = Array.make 32 0 in
    Xf
      (fun c w mask ->
        let ids = fb c w mask in
        let g = gi c w mask in
        let n = pc mask in
        charge c c.cfg.Cfg.mem_issue_cycles n;
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let buf = Mem.get_buf c.mem ids.(l) in
          let idx = ig g l in
          res.(l) <- Mem.read_float buf idx;
          addrs.(!k) <- Mem.addr buf idx;
          incr k;
          m := !m land (!m - 1)
        done;
        account c w addrs !k;
        res)
  | _ ->
    (* element type unknown (or not a buffer at all): boxed, walker-exact *)
    let gi = irun ci in
    let gb = vrun cb in
    let res = Array.make 32 (V.Vint 0) in
    let addrs = Array.make 32 0 in
    Xb
      (fun c w mask ->
        let b = gb c w mask in
        let g = gi c w mask in
        let n = pc mask in
        charge c c.cfg.Cfg.mem_issue_cycles n;
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let buf = get_buf_v env c (vg b l) in
          let idx = ig g l in
          (match buf.Mem.data with
          | Mem.I _ -> res.(l) <- V.Vint (Mem.read_int buf idx)
          | Mem.F _ -> res.(l) <- V.Vfloat (Mem.read_float buf idx));
          addrs.(!k) <- Mem.addr buf idx;
          incr k;
          m := !m land (!m - 1)
        done;
        account c w addrs !k;
        res)

(* --- statement compilation ---------------------------------------------- *)

(* Writers for assigning a statement's 32-wide result into a slot. *)

let copy_lanes_i (dst : int array) (src : int array) mask =
  let m = ref mask in
  while !m <> 0 do
    let l = lb !m in
    dst.(l) <- src.(l);
    m := !m land (!m - 1)
  done

let copy_lanes_f (dst : float array) (src : float array) mask =
  let m = ref mask in
  while !m <> 0 do
    let l = lb !m in
    dst.(l) <- src.(l);
    m := !m land (!m - 1)
  done

let storage_of env (v : A.var) =
  if v.A.slot < 0 then raise Not_compilable;
  env.storage.(v.A.slot)

(* Assign from a boxed scratch (used by the cold atomic path): the slot's
   unboxed representation is exact because inference proved every value
   reaching it monomorphic. *)
let assign_from_v env (v : A.var) : warp -> int -> V.t array -> unit =
  match storage_of env v with
  | Si r ->
    fun w mask olds ->
      let dst = w.ints.(r) in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        dst.(l) <- V.as_int olds.(l);
        m := !m land (!m - 1)
      done
  | Sf r ->
    fun w mask olds ->
      let dst = w.flts.(r) in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        dst.(l) <- V.as_float olds.(l);
        m := !m land (!m - 1)
      done
  | Sb r ->
    fun w mask olds ->
      let dst = w.boxd.(r) in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        dst.(l) <- olds.(l);
        m := !m land (!m - 1)
      done

let assign_all env (v : A.var) : warp -> V.t -> unit =
  match storage_of env v with
  | Si r ->
    fun w value ->
      let x =
        match value with
        | V.Vint i -> i
        | V.Vbuf id -> id
        | V.Vfloat _ -> assert false
      in
      Array.fill w.ints.(r) 0 32 x
  | Sf r ->
    fun w value -> Array.fill w.flts.(r) 0 32 (V.as_float value)
  | Sb r -> fun w value -> Array.fill w.boxd.(r) 0 32 value

(* One [Malloc] of [n_elems] elements under [mask], shared by the
   closure and bytecode tiers so the allocator call order, the
   [grid_alloc_count] contention, the segment's alloc_* fields and the
   per-site block/grid caches have a single implementation.  A per-warp
   malloc always allocates; per-block and per-grid ones allocate once
   per site and charge a 2-cycle cache hit afterwards. *)
let malloc_value c ~kname ~site scope ~mask n_elems : V.t =
  let fresh () =
    let name = Printf.sprintf "%s#m%d@g%d" kname site c.gid in
    let contention = !(c.grid_alloc_count) in
    incr c.grid_alloc_count;
    let fallbacks_before = Alloc.pool_fallbacks c.alloc in
    let buf, cost =
      Alloc.alloc ~contention c.alloc c.mem ~name ~count:n_elems
    in
    c.add_alloc_cycles cost;
    c.seg.Trace.allocs <- c.seg.Trace.allocs + 1;
    c.seg.Trace.alloc_fb <-
      c.seg.Trace.alloc_fb
      + (Alloc.pool_fallbacks c.alloc - fallbacks_before);
    c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
    charge c cost 1;
    V.Vbuf buf.Mem.id
  in
  let cached cache =
    match cache.(site) with
    | Some v ->
      charge c 2 (pc mask);
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

let rec compile_stmt env (s : A.stmt) : cctx -> warp -> int -> unit =
  let f = compile_stmt_inner env s in
  fun c w mask ->
    let mask = mask land lnot w.returned in
    if mask <> 0 then f c w mask

and compile_stmt_inner env (s : A.stmt) : cctx -> warp -> int -> unit =
  match s with
  | A.Let (v, e) -> (
    let ce = compile_expr env e in
    match (storage_of env v, ce) with
    | Si r, (Xi fe | Xu (_, fe)) ->
      fun c w mask ->
        let vals = fe c w mask in
        charge c 1 (pc mask);
        copy_lanes_i w.ints.(r) vals mask
    | Sf r, Xf fe ->
      fun c w mask ->
        let vals = fe c w mask in
        charge c 1 (pc mask);
        copy_lanes_f w.flts.(r) vals mask
    | Sb r, ce ->
      let ge = vrun ce in
      fun c w mask ->
        let g = ge c w mask in
        charge c 1 (pc mask);
        let dst = w.boxd.(r) in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          dst.(l) <- vg g l;
          m := !m land (!m - 1)
        done
    | (Si _ | Sf _), _ ->
      (* inference promised this could not happen *)
      raise Not_compilable)
  | A.Store (be, ie, xe) -> compile_store env be ie xe
  | A.Shared_store (name, ie, xe) -> (
    let gi = irun (compile_expr env ie) in
    let gx = vrun (compile_expr env xe) in
    match Hashtbl.find_opt env.shindex name with
    | None ->
      fun c w mask ->
        let _gi = gi c w mask in
        let _gx = gx c w mask in
        charge c 1 (pc mask);
        err "kernel %s: undeclared shared array %s" env.kname name
    | Some idx ->
      let sidx = Array.make 32 0 in
      fun c w mask ->
        let g = gi c w mask in
        let x = gx c w mask in
        charge c 1 (pc mask);
        let arr = c.shared.(idx) in
        let k = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let l = lb !m in
          let i = ig g l in
          if i < 0 || i >= Array.length arr then
            err "kernel %s: shared array %s[%d] out of bounds (size %d)"
              env.kname name i (Array.length arr);
          sidx.(!k) <- i;
          incr k;
          arr.(i) <- vg x l;
          m := !m land (!m - 1)
        done;
        account_shared c sidx !k)
  | A.If (cond, t, f) ->
    let tc = compile_truth ~charge_node:true (compile_expr env cond) in
    let ct = Array.of_list (List.map (compile_stmt env) t) in
    let cf = Array.of_list (List.map (compile_stmt env) f) in
    fun c w mask ->
      let m_true = tc c w mask in
      let m_false = mask land lnot m_true in
      if m_true <> 0 then
        Array.iter (fun st -> st c w m_true) ct;
      if m_false <> 0 then Array.iter (fun st -> st c w m_false) cf
  | A.While (cond, body) ->
    let tc = compile_truth ~charge_node:true (compile_expr env cond) in
    let cbody = Array.of_list (List.map (compile_stmt env) body) in
    fun c w mask ->
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m0 = !continue_mask land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          let m_true = tc c w m0 in
          if m_true = 0 then running := false
          else begin
            Array.iter (fun st -> st c w m_true) cbody;
            continue_mask := m_true
          end
        end
      done
  | A.For (v, lo, hi, body) -> compile_for env v lo hi body
  | A.Atomic { op; buf = be; idx = ie; operand = oe; compare = ce; old } ->
    compile_atomic env op be ie oe ce old
  | A.Launch l ->
    let gg = irun (compile_expr env l.A.grid) in
    let gb = irun (compile_expr env l.A.block) in
    let gargs = List.map (fun a -> vrun (compile_expr env a)) l.A.args in
    let callee = l.A.callee in
    fun c w mask ->
      let vg_ = gg c w mask in
      let vb_ = gb c w mask in
      let vargs = List.map (fun ga -> ga c w mask) gargs in
      let n = pc mask in
      let ids = Array.make n (-1) in
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let lane = lb !m in
        let grid_dim = ig vg_ lane in
        let block_dim = ig vb_ lane in
        let args = List.map (fun g -> vg g lane) vargs in
        charge c c.cfg.Cfg.launch_issue_cycles 1;
        c.seg.Trace.dram <-
          c.seg.Trace.dram + c.cfg.Cfg.launch_dram_transactions;
        Vec.push c.pending
          { R.pl_callee = callee; pl_grid = grid_dim; pl_block = block_dim;
            pl_args = args; pl_ids = ids; pl_slot = !k;
            pl_parent = (c.gid, c.block_idx); pl_depth = c.depth + 1 };
        incr k;
        m := !m land (!m - 1)
      done;
      Trace.cut c.seg (Trace.Seg_launch ids)
  | A.Device_sync ->
    fun c _w mask ->
      charge c 2 (pc mask);
      let todo = Vec.to_array c.pending in
      Vec.clear c.pending;
      Array.iter c.flush_deep todo;
      Trace.cut c.seg Trace.Seg_sync
  | A.Malloc { dst; count; scope; site } ->
    if site < 0 then raise Not_compilable;
    let gcount = irun (compile_expr env count) in
    let set = assign_all env dst in
    let kname = env.kname in
    fun c w mask ->
      let g = gcount c w mask in
      set w (malloc_value c ~kname ~site scope ~mask (ig g (lb mask)))
  | A.Free e -> (
    let cb = compile_expr env e in
    match cb with
    | Xu (_, fb) ->
      fun c w mask ->
        let ids = fb c w mask in
        let first = lb mask in
        let buf = Mem.get_buf c.mem ids.(first) in
        let cost = Alloc.free c.alloc buf in
        c.add_alloc_cycles cost;
        c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
        charge c cost 1
    | _ ->
      let gb = vrun cb in
      fun c w mask ->
        let g = gb c w mask in
        let first = lb mask in
        let buf = get_buf_v env c (vg g first) in
        let cost = Alloc.free c.alloc buf in
        c.add_alloc_cycles cost;
        c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
        charge c cost 1)
  | A.Return -> fun _c w mask -> w.returned <- w.returned lor mask
  | A.Syncthreads | A.Grid_barrier ->
    fun _c _w _mask ->
      err
        "kernel %s: __syncthreads/__dp_global_barrier reached in divergent \
         (non block-uniform) control flow"
        env.kname

and compile_store env be ie xe : cctx -> warp -> int -> unit =
  let cb = compile_expr env be in
  let ci = compile_expr env ie in
  let cx = compile_expr env xe in
  match (cb, int_of_safe ci) with
  | Xu (Ty.Eint, fb), Some fi when int_of_safe cx <> None ->
    let fx = Option.get (int_of_safe cx) in
    let addrs = Array.make 32 0 in
    fun c w mask ->
      let ids = fb c w mask in
      let g = fi c w mask in
      let x = fx c w mask in
      let n = pc mask in
      charge c c.cfg.Cfg.mem_issue_cycles n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = g.(l) in
        Mem.write_int buf idx x.(l);
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k
  | Xu (Ty.Efloat, fb), Some fi when float_of_safe cx <> None ->
    let fx = Option.get (float_of_safe cx) in
    let addrs = Array.make 32 0 in
    fun c w mask ->
      let ids = fb c w mask in
      let g = fi c w mask in
      let x = fx c w mask in
      let n = pc mask in
      charge c c.cfg.Cfg.mem_issue_cycles n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = g.(l) in
        Mem.write_float buf idx x.(l);
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k
  | Xu (Ty.Eint, fb), _ ->
    (* a raising coercion somewhere: getters keep the per-lane raise
       order *)
    let gi = irun ci in
    let gx = irun cx in
    let addrs = Array.make 32 0 in
    fun c w mask ->
      let ids = fb c w mask in
      let g = gi c w mask in
      let x = gx c w mask in
      let n = pc mask in
      charge c c.cfg.Cfg.mem_issue_cycles n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = ig g l in
        Mem.write_int buf idx (ig x l);
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k
  | Xu (Ty.Efloat, fb), _ ->
    let gi = irun ci in
    let gx = frun cx in
    let addrs = Array.make 32 0 in
    fun c w mask ->
      let ids = fb c w mask in
      let g = gi c w mask in
      let x = gx c w mask in
      let n = pc mask in
      charge c c.cfg.Cfg.mem_issue_cycles n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = ig g l in
        Mem.write_float buf idx (fg x l);
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k
  | _ ->
    let gi = irun ci in
    let gb = vrun cb in
    let gx = vrun cx in
    let addrs = Array.make 32 0 in
    fun c w mask ->
      let b = gb c w mask in
      let g = gi c w mask in
      let x = gx c w mask in
      let n = pc mask in
      charge c c.cfg.Cfg.mem_issue_cycles n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = get_buf_v env c (vg b l) in
        let idx = ig g l in
        (match buf.Mem.data with
        | Mem.I _ -> Mem.write_int buf idx (V.as_int (vg x l))
        | Mem.F _ -> Mem.write_float buf idx (V.as_float (vg x l)));
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k

and compile_for env v lo hi body : cctx -> warp -> int -> unit =
  let clo = compile_expr env lo in
  let chi = compile_expr env hi in
  let ghi = irun chi in
  let cbody = Array.of_list (List.map (compile_stmt env) body) in
  match (storage_of env v, int_of_safe chi) with
  | Si r, Some fhi ->
    (* induction variable proven int: lo must be int-typed *)
    let flo =
      match clo with
      | Xi f -> f
      | _ -> raise Not_compilable
    in
    fun c w mask ->
      let vlo = flo c w mask in
      charge c 1 (pc mask);
      copy_lanes_i w.ints.(r) vlo mask;
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m0 = !continue_mask land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          let h = fhi c w m0 in
          charge c 1 (pc m0);
          let cur = w.ints.(r) in
          let mt = ref 0 in
          let m = ref m0 in
          while !m <> 0 do
            let l = lb !m in
            if cur.(l) < h.(l) then mt := !mt lor (1 lsl l);
            m := !m land (!m - 1)
          done;
          if !mt = 0 then running := false
          else begin
            let m_true = !mt in
            Array.iter (fun st -> st c w m_true) cbody;
            let cur = w.ints.(r) in
            charge c 1 (pc m_true);
            let m = ref m_true in
            while !m <> 0 do
              let l = lb !m in
              cur.(l) <- cur.(l) + 1;
              m := !m land (!m - 1)
            done;
            continue_mask := m_true
          end
        end
      done
  | Si r, None ->
    let flo =
      match clo with
      | Xi f -> f
      | _ -> raise Not_compilable
    in
    fun c w mask ->
      let vlo = flo c w mask in
      charge c 1 (pc mask);
      copy_lanes_i w.ints.(r) vlo mask;
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m0 = !continue_mask land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          let h = ghi c w m0 in
          charge c 1 (pc m0);
          let cur = w.ints.(r) in
          let mt = ref 0 in
          let m = ref m0 in
          while !m <> 0 do
            let l = lb !m in
            if cur.(l) < ig h l then mt := !mt lor (1 lsl l);
            m := !m land (!m - 1)
          done;
          if !mt = 0 then running := false
          else begin
            let m_true = !mt in
            Array.iter (fun st -> st c w m_true) cbody;
            let cur = w.ints.(r) in
            charge c 1 (pc m_true);
            let m = ref m_true in
            while !m <> 0 do
              let l = lb !m in
              cur.(l) <- cur.(l) + 1;
              m := !m land (!m - 1)
            done;
            continue_mask := m_true
          end
        end
      done
  | Sf _, _ -> raise Not_compilable
  | Sb r, _ ->
    let glo = vrun clo in
    fun c w mask ->
      let g = glo c w mask in
      charge c 1 (pc mask);
      let dst = w.boxd.(r) in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        dst.(l) <- vg g l;
        m := !m land (!m - 1)
      done;
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m0 = !continue_mask land lnot w.returned in
        if m0 = 0 then running := false
        else begin
          let h = ghi c w m0 in
          charge c 1 (pc m0);
          let cur = w.boxd.(r) in
          let mt = ref 0 in
          let m = ref m0 in
          while !m <> 0 do
            let l = lb !m in
            if V.as_int cur.(l) < ig h l then mt := !mt lor (1 lsl l);
            m := !m land (!m - 1)
          done;
          if !mt = 0 then running := false
          else begin
            let m_true = !mt in
            Array.iter (fun st -> st c w m_true) cbody;
            let cur = w.boxd.(r) in
            charge c 1 (pc m_true);
            let m = ref m_true in
            while !m <> 0 do
              let l = lb !m in
              cur.(l) <- V.Vint (V.as_int cur.(l) + 1);
              m := !m land (!m - 1)
            done;
            continue_mask := m_true
          end
        end
      done

and compile_atomic env op be ie oe ce old : cctx -> warp -> int -> unit =
  let cb = compile_expr env be in
  let ci = compile_expr env ie in
  let co = compile_expr env oe in
  let cc = Option.map (compile_expr env) ce in
  let idx_safe = int_of_safe ci in
  let fast_int =
    (* int buffer, int operand, non-raising index: all unboxed *)
    idx_safe <> None
    &&
    match (cb, co, op) with
    | Xu (Ty.Eint, _), Xi _, (A.Aadd | A.Amin | A.Amax | A.Aexch) -> true
    | Xu (Ty.Eint, _), Xi _, A.Acas -> (
      match cc with Some (Xi _ | Xf _) -> true | _ -> false)
    | _ -> false
  in
  let fast_float =
    (* float buffer, arithmetic op: C promotion makes int operands exact *)
    idx_safe <> None
    &&
    match (cb, co, op) with
    | Xu (Ty.Efloat, _), (Xf _ | Xi _), (A.Aadd | A.Amin | A.Amax) -> true
    | Xu (Ty.Efloat, _), Xf _, A.Aexch -> true
    | _ -> false
  in
  if fast_int then begin
    let fb = match cb with Xu (_, f) -> f | _ -> assert false in
    let fi = Option.get idx_safe in
    let fo = Option.get (int_of_safe co) in
    let fc = Option.map (fun cx -> Option.get (int_of_safe cx)) cc in
    let olds = Array.make 32 0 in
    let addrs = Array.make 32 0 in
    let apply =
      match op with
      | A.Aadd -> fun old o _cmp -> old + o
      | A.Amin -> fun old o _cmp -> Int.min old o
      | A.Amax -> fun old o _cmp -> Int.max old o
      | A.Aexch -> fun _old o _cmp -> o
      | A.Acas -> fun old o cmp -> if old = cmp then o else old
    in
    let assign =
      match old with
      | None -> None
      | Some v -> (
        match storage_of env v with
        | Si r -> Some (`I r)
        | Sb r -> Some (`B r)
        | Sf _ -> raise Not_compilable)
    in
    fun c w mask ->
      let ids = fb c w mask in
      let g = fi c w mask in
      let o = fo c w mask in
      let cmp = Option.map (fun fc -> fc c w mask) fc in
      let n = pc mask in
      charge c (c.cfg.Cfg.atomic_cycles * n) n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = g.(l) in
        let old_v = Mem.read_int buf idx in
        olds.(l) <- old_v;
        let cmp_v = match cmp with Some a -> a.(l) | None -> 0 in
        let new_v = apply old_v o.(l) cmp_v in
        Mem.write_int buf idx new_v;
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k;
      match assign with
      | None -> ()
      | Some (`I r) -> copy_lanes_i w.ints.(r) olds mask
      | Some (`B r) ->
        let dst = w.boxd.(r) in
        let mm = ref mask in
        while !mm <> 0 do
          let l = lb !mm in
          dst.(l) <- V.Vint olds.(l);
          mm := !mm land (!mm - 1)
        done
  end
  else if fast_float then begin
    let fb = match cb with Xu (_, f) -> f | _ -> assert false in
    let fi = Option.get idx_safe in
    let fo = Option.get (float_of_safe co) in
    let olds = Array.make 32 0.0 in
    let addrs = Array.make 32 0 in
    let apply =
      match op with
      | A.Aadd -> fun old o -> old +. o
      | A.Amin -> fun old o -> Float.min old o
      | A.Amax -> fun old o -> Float.max old o
      | A.Aexch -> fun _old o -> o
      | A.Acas -> assert false
    in
    let assign =
      match old with
      | None -> None
      | Some v -> (
        match storage_of env v with
        | Sf r -> Some (`F r)
        | Sb r -> Some (`B r)
        | Si _ -> raise Not_compilable)
    in
    fun c w mask ->
      let ids = fb c w mask in
      let g = fi c w mask in
      let o = fo c w mask in
      let n = pc mask in
      charge c (c.cfg.Cfg.atomic_cycles * n) n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = Mem.get_buf c.mem ids.(l) in
        let idx = g.(l) in
        let old_v = Mem.read_float buf idx in
        olds.(l) <- old_v;
        let new_v = apply old_v o.(l) in
        Mem.write_float buf idx new_v;
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k;
      match assign with
      | None -> ()
      | Some (`F r) -> copy_lanes_f w.flts.(r) olds mask
      | Some (`B r) ->
        let dst = w.boxd.(r) in
        let mm = ref mask in
        while !mm <> 0 do
          let l = lb !mm in
          dst.(l) <- V.Vfloat olds.(l);
          mm := !mm land (!mm - 1)
        done
  end
  else begin
    (* cold path: exact mirror of the walker, boxed per lane *)
    let gi = irun ci in
    let gb = vrun cb in
    let go = vrun co in
    let gc = Option.map vrun cc in
    let olds = Array.make 32 (V.Vint 0) in
    let addrs = Array.make 32 0 in
    let assign = Option.map (assign_from_v env) old in
    fun c w mask ->
      let b = gb c w mask in
      let g = gi c w mask in
      let o = go c w mask in
      let cmp = Option.map (fun gc -> gc c w mask) gc in
      let n = pc mask in
      charge c (c.cfg.Cfg.atomic_cycles * n) n;
      let k = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let l = lb !m in
        let buf = get_buf_v env c (vg b l) in
        let idx = ig g l in
        let old_v =
          match buf.Mem.data with
          | Mem.I _ -> V.Vint (Mem.read_int buf idx)
          | Mem.F _ -> V.Vfloat (Mem.read_float buf idx)
        in
        olds.(l) <- old_v;
        let new_v =
          match op with
          | A.Aadd -> R.binop_apply A.Add old_v (vg o l)
          | A.Amin -> R.binop_apply A.Min old_v (vg o l)
          | A.Amax -> R.binop_apply A.Max old_v (vg o l)
          | A.Aexch -> vg o l
          | A.Acas ->
            let cmp_v =
              match cmp with
              | Some gc -> vg gc l
              | None -> err "atomicCAS without compare value"
            in
            if V.as_int old_v = V.as_int cmp_v then vg o l else old_v
        in
        (match buf.Mem.data with
        | Mem.I _ -> Mem.write_int buf idx (V.as_int new_v)
        | Mem.F _ -> Mem.write_float buf idx (V.as_float new_v));
        addrs.(!k) <- Mem.addr buf idx;
        incr k;
        m := !m land (!m - 1)
      done;
      account c w addrs !k;
      match assign with
      | None -> ()
      | Some set -> set w mask olds
  end

(* --- block-uniform statement compilation -------------------------------- *)

type uval = Unone | Uint of int | Ufloat of float | Ubuf of int
          | Uboxed of V.t

let utruthy = function
  | Unone -> false
  | Uint i -> i <> 0
  | Ufloat f -> f <> 0.0
  | Ubuf id -> V.truthy (V.Vbuf id)
  | Uboxed v -> V.truthy v

let uint = function
  | Unone -> 0
  | Uint i -> i
  | Ufloat f -> Float.to_int f
  | Ubuf id -> V.as_int (V.Vbuf id)
  | Uboxed v -> V.as_int v

let nonuniform env (v0 : V.t) (v1 : V.t) =
  err
    "kernel %s: non-uniform condition around a block-level barrier (%s vs \
     %s)"
    env.kname (V.to_string v0) (V.to_string v1)

(* Evaluate [e] on every live lane of the block; all live lanes must
   agree (the CUDA legality rule for barriers inside control flow).
   Returns [Unone] when no lane in the block is live.  The uniformity
   test on raw ints/floats is the walker's polymorphic [<>] on the boxed
   values (IEEE semantics on floats, NaN included). *)
let compile_ueval env (ce : cexpr) : cctx -> uval =
  match ce with
  | Xi f ->
    fun c ->
      let got = ref false and v0 = ref 0 in
      Array.iter
        (fun w ->
          let m0 = live_mask w in
          if m0 <> 0 then begin
            let a = f c w m0 in
            charge c 1 (pc m0);
            let m = ref m0 in
            while !m <> 0 do
              let l = lb !m in
              if not !got then begin
                got := true;
                v0 := a.(l)
              end
              else if a.(l) <> !v0 then
                nonuniform env (V.Vint !v0) (V.Vint a.(l));
              m := !m land (!m - 1)
            done
          end)
        c.warps;
      if !got then Uint !v0 else Unone
  | Xu (_, f) ->
    fun c ->
      let got = ref false and v0 = ref 0 in
      Array.iter
        (fun w ->
          let m0 = live_mask w in
          if m0 <> 0 then begin
            let a = f c w m0 in
            charge c 1 (pc m0);
            let m = ref m0 in
            while !m <> 0 do
              let l = lb !m in
              if not !got then begin
                got := true;
                v0 := a.(l)
              end
              else if a.(l) <> !v0 then
                nonuniform env (V.Vbuf !v0) (V.Vbuf a.(l));
              m := !m land (!m - 1)
            done
          end)
        c.warps;
      if !got then Ubuf !v0 else Unone
  | Xf f ->
    fun c ->
      let got = ref false and v0 = ref 0.0 in
      Array.iter
        (fun w ->
          let m0 = live_mask w in
          if m0 <> 0 then begin
            let a = f c w m0 in
            charge c 1 (pc m0);
            let m = ref m0 in
            while !m <> 0 do
              let l = lb !m in
              if not !got then begin
                got := true;
                v0 := a.(l)
              end
              else if a.(l) <> !v0 then
                nonuniform env (V.Vfloat !v0) (V.Vfloat a.(l));
              m := !m land (!m - 1)
            done
          end)
        c.warps;
      if !got then Ufloat !v0 else Unone
  | Xb f ->
    fun c ->
      let result = ref None in
      Array.iter
        (fun w ->
          let m0 = live_mask w in
          if m0 <> 0 then begin
            let a = f c w m0 in
            charge c 1 (pc m0);
            let m = ref m0 in
            while !m <> 0 do
              let l = lb !m in
              (match !result with
              | None -> result := Some a.(l)
              | Some v0 -> if a.(l) <> v0 then nonuniform env v0 a.(l));
              m := !m land (!m - 1)
            done
          end)
        c.warps;
      (match !result with Some v -> Uboxed v | None -> Unone)

let rec compile_uniform env (s : A.stmt) : cctx -> unit =
  match s with
  | A.Syncthreads ->
    fun c ->
      Array.iter
        (fun w ->
          let m = live_mask w in
          if m <> 0 then charge c 2 (pc m))
        c.warps
  | A.Grid_barrier ->
    fun c ->
      (* One lane per block performs the arrival atomic; all blocks except
         the last to arrive exit (Section IV.E deadlock avoidance). *)
      charge c c.cfg.Cfg.atomic_cycles 1;
      Trace.cut c.seg Trace.Seg_barrier;
      if c.block_idx <> c.grid_dim - 1 then
        Array.iter
          (fun w -> w.returned <- w.returned lor full_mask w)
          c.warps
  | A.If (cond, t, f) ->
    let ue = compile_ueval env (compile_expr env cond) in
    let ct = compile_block env t in
    let cf = compile_block env f in
    fun c -> (
      match ue c with
      | Unone -> ()
      | u -> if utruthy u then ct c else cf c)
  | A.While (cond, body) ->
    let ue = compile_ueval env (compile_expr env cond) in
    let cbody = compile_block env body in
    fun c ->
      let running = ref true in
      while !running do
        match ue c with
        | Unone -> running := false
        | u -> if utruthy u then cbody c else running := false
      done
  | A.For (v, lo, hi, body) ->
    let ulo = compile_ueval env (compile_expr env lo) in
    let uhi = compile_ueval env (compile_expr env hi) in
    let cbody = compile_block env body in
    let set_var =
      match storage_of env v with
      | Si r ->
        fun c i ->
          Array.iter
            (fun w ->
              let m0 = live_mask w in
              if m0 <> 0 then begin
                charge c 1 (pc m0);
                let dst = w.ints.(r) in
                let m = ref m0 in
                while !m <> 0 do
                  let l = lb !m in
                  dst.(l) <- i;
                  m := !m land (!m - 1)
                done
              end)
            c.warps
      | Sb r ->
        fun c i ->
          let v = V.Vint i in
          Array.iter
            (fun w ->
              let m0 = live_mask w in
              if m0 <> 0 then begin
                charge c 1 (pc m0);
                let dst = w.boxd.(r) in
                let m = ref m0 in
                while !m <> 0 do
                  let l = lb !m in
                  dst.(l) <- v;
                  m := !m land (!m - 1)
                done
              end)
            c.warps
      | Sf _ -> raise Not_compilable
    in
    fun c -> (
      match ulo c with
      | Unone -> ()
      | u0 ->
        let i = ref (uint u0) in
        set_var c !i;
        let running = ref true in
        while !running do
          match uhi c with
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
    (* Only barrier-bearing statements are routed here. *)
    fun _c ->
      err "kernel %s: internal error: non-uniform statement in uniform walk"
        env.kname

(* Execute maximal runs of barrier-free statements warp by warp; handle
   barrier-bearing statements block-uniformly.  The split happens once,
   at compile time. *)
and compile_block env (stmts : A.stmt list) : cctx -> unit =
  let rec split_run acc = function
    | s :: rest when not (A.needs_block_uniform s) ->
      split_run (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | s :: rest when A.needs_block_uniform s ->
      `U (compile_uniform env s) :: go rest
    | stmts ->
      let run, rest = split_run [] stmts in
      (match env.run_lower with
      | Some lower -> `L (lower env run) :: go rest
      | None -> `R (Array.of_list (List.map (compile_stmt env) run)) :: go rest)
  in
  let segs = Array.of_list (go stmts) in
  fun c ->
    Array.iter
      (function
        | `U f -> f c
        | `L f -> Array.iter (fun w -> if live_mask w <> 0 then f c w) c.warps
        | `R run ->
          Array.iter
            (fun w ->
              if live_mask w <> 0 then
                Array.iter (fun st -> st c w (full_mask w)) run)
            c.warps)
      segs

(* --- whole-kernel compilation ------------------------------------------- *)

type ckernel = {
  ck_kernel : K.t;
  ck_nint : int;  (** int-plane rows per warp *)
  ck_nflt : int;
  ck_nbox : int;
  ck_param_store : storage list;  (** aligned with the parameter list *)
  ck_param_ty : Ty.slot_ty list;
  ck_shared : (string * int) list;
  ck_run : cctx -> unit;
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

let compile_kernel ?run_lower (k : K.t) : ckernel option =
  match k.K.typing with
  | None -> None
  | Some ty when not ty.Ty.ok -> None
  | Some ty -> (
    try
      let nslots = Array.length ty.Ty.slots in
      let storage = Array.make nslots (Si 0) in
      let ni = ref 0 and nf = ref 0 and nb = ref 0 in
      Array.iteri
        (fun i st ->
          match st with
          | Ty.St_bot | Ty.St_int | Ty.St_buf _ ->
            storage.(i) <- Si !ni;
            incr ni
          | Ty.St_float ->
            storage.(i) <- Sf !nf;
            incr nf
          | Ty.St_boxed ->
            storage.(i) <- Sb !nb;
            incr nb)
        ty.Ty.slots;
      let shindex = Hashtbl.create 4 in
      List.iteri
        (fun i (name, _) -> Hashtbl.replace shindex name i)
        k.K.shared;
      let shtys = Array.of_list (List.map snd ty.Ty.shared) in
      let shnum = numeric_shared ~slots:ty.Ty.slots ~shindex ~shtys k.K.body in
      let env = { kname = k.K.kname; slots = ty.Ty.slots; storage; shindex;
                  shtys; shnum; nsites = k.K.nsites; run_lower }
      in
      let run = compile_block env k.K.body in
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
        { ck_kernel = k; ck_nint = !ni; ck_nflt = !nf; ck_nbox = !nb;
          ck_param_store = param_store; ck_param_ty = param_ty;
          ck_shared = k.K.shared; ck_run = run }
    with Not_compilable -> None)

(** Do the launch arguments' runtime types agree with the inference?  A
    mismatching launch (e.g. a float passed for an int parameter) falls
    back to the reference walker, which defines the semantics of such
    calls. *)
let args_ok ck mem (args : V.t list) =
  try
    List.for_all2
      (fun sty (v : V.t) ->
        match (sty, v) with
        | (Ty.St_boxed | Ty.St_bot), _ -> true
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

let exec_block (ck : ckernel) ~(cfg : Cfg.t) ~mem ~alloc ~mm ~gid
    ~grid_dim ~block_dim ~depth ~block_idx ~(args : V.t list) ~grid_mallocs
    ~grid_alloc_count ~flush_deep ~enqueue ~add_alloc_cycles ~deep :
    Trace.block_trace =
  let nwarps = Cfg.warps_per_block cfg ~block_dim in
  let warps =
    Array.init nwarps (fun widx ->
        let base_lane = widx * cfg.Cfg.warp_size in
        let nlanes = Int.min cfg.Cfg.warp_size (block_dim - base_lane) in
        {
          widx;
          base_lane;
          nlanes;
          ints = Array.init ck.ck_nint (fun _ -> Array.make 32 0);
          flts = Array.init ck.ck_nflt (fun _ -> Array.make 32 0.0);
          boxd = Array.init ck.ck_nbox (fun _ -> Array.make 32 (V.Vint 0));
          returned = 0;
        })
  in
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
        Array.iter (fun w -> Array.fill w.ints.(r) 0 32 x) warps
      | Sf r ->
        let x = match v with V.Vfloat f -> f | _ -> assert false in
        Array.iter (fun w -> Array.fill w.flts.(r) 0 32 x) warps
      | Sb r -> Array.iter (fun w -> Array.fill w.boxd.(r) 0 32 v) warps)
    ck.ck_param_store args;
  let shared =
    Array.of_list
      (List.map (fun (_, size) -> Array.make size (V.Vint 0)) ck.ck_shared)
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
      block_mallocs =
        Array.make (Int.max 1 ck.ck_kernel.K.nsites) None;
      grid_mallocs;
      grid_alloc_count;
      pending = Vec.create ~dummy:R.dummy_pending;
      deep;
      flush_deep;
      add_alloc_cycles;
    }
  in
  Memmodel.block_start mm;
  ck.ck_run c;
  (* Block end: in deep mode (an enclosing sync is waiting on this
     subtree) children run to completion now; otherwise they join the
     global breadth-order queue. *)
  let todo = Vec.to_array c.pending in
  Vec.clear c.pending;
  if deep then Array.iter flush_deep todo else Array.iter enqueue todo;
  Trace.finish c.seg ~block_idx ~warps:nwarps
