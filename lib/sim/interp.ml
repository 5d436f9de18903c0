(** Functional SIMT interpreter.

    Executes kernel IR the way a SIMT machine does at warp granularity:
    each warp evaluates every instruction as a 32-wide vector under an
    active-lane mask, divergent branches serialize both paths, loops run
    with shrinking masks, and global-memory instructions are coalesced
    into 128-byte segments filtered through an L2 model.  It records the
    per-block {!Trace.segment}s consumed by the timing model.

    Two back ends implement the semantics:

    - the {e reference walker} below re-traverses the AST per warp with
      boxed {!V.t} vectors — slow, obviously correct, and the oracle for
      differential testing;
    - the {e bytecode tier} ({!Bytecode}) lowers each kernel once into
      dense int-coded programs over an unboxed register plane, executed
      by a fused dispatch loop.

    The bytecode tier is dispatched to whenever the kernel lowers and the
    launch arguments match the inferred types; otherwise the launch takes
    the walker.  Both paths emit byte-identical traces (same charges in
    the same order).  The default is the bytecode tier, lowered lazily at
    a kernel's first launch in a session; set [DPC_INTERP=ref] (or call
    {!set_default_mode}) to force the walker.

    Device-side launches are recorded and executed when the launching
    block reaches [cudaDeviceSynchronize] or finishes.  This is sound for
    any program in which a parent only reads data written by a child after
    [cudaDeviceSynchronize] or kernel end — the visibility rule the CUDA
    DP memory model gives real programs (see DESIGN.md, "Execution-model
    restriction") — and it keeps data-dependent launch chains near their
    breadth-first depth, as concurrent hardware execution does. *)

module A = Dpc_kir.Ast
module V = Dpc_kir.Value
module K = Dpc_kir.Kernel
module Mem = Dpc_gpu.Memory
module Cfg = Dpc_gpu.Config
module Alloc = Dpc_alloc.Allocator
module Vec = Dpc_util.Vec
module R = Runtime

exception Sim_error = Runtime.Sim_error

let err = R.err

(* Runaway-recursion guard: the launch that would be a session's
   [grid_budget]-th grid raises instead. *)
let grid_budget = 150_000

type pending_launch = Runtime.pending_launch = {
  pl_callee : string;
  pl_grid : int;
  pl_block : int;
  pl_args : V.t list;
  pl_ids : int array;  (** the Seg_launch id slot to patch at execution *)
  pl_slot : int;
  pl_parent : int * int;  (** launching grid id, block idx *)
  pl_depth : int;  (** nesting depth of the child *)
}

(* --- back-end selection -------------------------------------------------- *)

type mode = Bytecode | Reference

let mode_to_string = function Bytecode -> "bytecode" | Reference -> "ref"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "bytecode" | "bc" -> Some Bytecode
  | "ref" | "reference" | "walker" -> Some Reference
  | _ -> None

let default_mode_ref =
  ref
    (match Sys.getenv_opt "DPC_INTERP" with
    | None -> Bytecode
    | Some s -> (
      match mode_of_string s with
      | Some m -> m
      | None ->
        Printf.eprintf
          "dpc: ignoring DPC_INTERP=%S (expected bytecode or ref)\n%!" s;
        Bytecode))

let set_default_mode m = default_mode_ref := m

let default_mode () = !default_mode_ref

type session = {
  cfg : Cfg.t;
  mem : Mem.t;
  alloc : Alloc.t;
  prog : K.Program.t;
  grids : Trace.grid_exec Vec.t;
  mutable roots : int list;  (** host-launched grid ids, reverse order *)
  mm : Memmodel.t;  (** memory-hierarchy model: the single accounting path *)
  mutable alloc_cycles : int;
  mutable max_depth : int;
  fifo : pending_launch Queue.t;
      (** global breadth-order queue of launches awaiting execution *)
  mode : mode;
  ckernels : (string, Bytecode.ckernel option) Hashtbl.t;
      (** per-session lowering cache: kernel name -> lowered form, or
          [None] when the kernel does not lower and every launch of it
          must take the reference walker *)
  host : Bytecode.host;  (** this session's runtime, as lowered blocks see it *)
}

let dummy_grid : Trace.grid_exec =
  { gid = -1; kernel = ""; grid_dim = 0; block_dim = 0; depth = 0;
    parent = None; blocks = [||] }

(* --- warp / block execution state -------------------------------------- *)

type warp_state = {
  widx : int;
  base_lane : int;  (** threadIdx.x of lane 0 *)
  nlanes : int;  (** threads in this warp (last warp may be partial) *)
  frames : V.t array array;  (** indexed [slot].[lane] *)
  mutable returned : int;  (** bitmask of lanes that executed [return] *)
}

type bctx = {
  s : session;
  gid : int;
  kernel : K.t;
  grid_dim : int;
  block_dim : int;
  depth : int;
  block_idx : int;
  shared : (string, V.t array) Hashtbl.t;
  warps : warp_state array;
  seg : Trace.seg_builder;
  shidx : int array;  (** shared-access index scratch for {!Memmodel} *)
  block_mallocs : (int, V.t) Hashtbl.t;
  grid_mallocs : V.t option array;
  grid_alloc_count : int ref;
      (** allocator calls issued by this grid so far (heap contention) *)
  pending : pending_launch Vec.t;
  deep : bool;
      (** this grid is being drained to completion for an enclosing
          [cudaDeviceSynchronize]: its launches must also complete now *)
}

let popcount = R.popcount

let lowest_bit = R.lowest_bit

let iter_lanes = R.iter_lanes

let lanes_where = R.lanes_where

let full_mask w = (1 lsl w.nlanes) - 1

let live_mask w = full_mask w land lnot w.returned

let charge c cycles active = R.charge c.seg cycles active

(* --- scalar operations -------------------------------------------------- *)

let unop_apply = R.unop_apply

let binop_apply = R.binop_apply

let special_value c w (s : A.special) lane =
  match s with
  | A.Thread_idx -> w.base_lane + lane
  | A.Block_idx -> c.block_idx
  | A.Block_dim -> c.block_dim
  | A.Grid_dim -> c.grid_dim
  | A.Lane_id -> lane
  | A.Warp_id -> w.widx
  | A.Warp_size -> c.s.cfg.Cfg.warp_size

(* --- memory access accounting ------------------------------------------ *)

let account_access c w (addrs : int array) n =
  Memmodel.account_access c.s.mm ~seg:c.seg ~warp:w.widx addrs n

let account_shared c (idxs : int array) n =
  Memmodel.account_shared c.s.mm ~seg:c.seg idxs n

(* --- expression evaluation (32-wide vectors) ---------------------------- *)

let get_buf c (v : V.t) =
  match v with
  | V.Vbuf id -> Mem.get_buf c.s.mem id
  | _ ->
    err "kernel %s: %s used as a buffer" c.kernel.K.kname (V.to_string v)

let rec eval c w mask (e : A.expr) : V.t array =
  match e with
  | A.Const v -> Array.make 32 v
  | A.Var v ->
    if v.A.slot < 0 then
      err "kernel %s: unresolved variable %s" c.kernel.K.kname v.A.name;
    w.frames.(v.A.slot)
  | A.Special sp ->
    charge c 1 (popcount mask);
    let arr = Array.make 32 (V.Vint 0) in
    for l = 0 to w.nlanes - 1 do
      arr.(l) <- V.Vint (special_value c w sp l)
    done;
    arr
  | A.Unop (op, a) ->
    let va = eval c w mask a in
    charge c 1 (popcount mask);
    let res = Array.make 32 (V.Vint 0) in
    iter_lanes mask (fun l -> res.(l) <- unop_apply op va.(l));
    res
  | A.Binop (A.And, a, b) ->
    (* Short-circuit: evaluate [b] only on lanes where [a] held. *)
    let va = eval c w mask a in
    charge c 1 (popcount mask);
    let m_true = lanes_where mask (fun l -> V.truthy va.(l)) in
    let res = Array.make 32 (V.Vint 0) in
    if m_true <> 0 then begin
      let vb = eval c w m_true b in
      iter_lanes m_true (fun l -> res.(l) <- V.of_bool (V.truthy vb.(l)))
    end;
    res
  | A.Binop (A.Or, a, b) ->
    let va = eval c w mask a in
    charge c 1 (popcount mask);
    let m_false = lanes_where mask (fun l -> not (V.truthy va.(l))) in
    let res = Array.make 32 (V.Vint 1) in
    if m_false <> 0 then begin
      let vb = eval c w m_false b in
      iter_lanes m_false (fun l -> res.(l) <- V.of_bool (V.truthy vb.(l)))
    end;
    res
  | A.Binop (op, a, b) ->
    let va = eval c w mask a in
    let vb = eval c w mask b in
    charge c 1 (popcount mask);
    let res = Array.make 32 (V.Vint 0) in
    iter_lanes mask (fun l -> res.(l) <- binop_apply op va.(l) vb.(l));
    res
  | A.Load (be, ie) ->
    let vb = eval c w mask be in
    let vi = eval c w mask ie in
    let n = popcount mask in
    charge c c.s.cfg.Cfg.mem_issue_cycles n;
    let res = Array.make 32 (V.Vint 0) in
    let addrs = Array.make 32 0 in
    let k = ref 0 in
    iter_lanes mask (fun l ->
        let buf = get_buf c vb.(l) in
        let idx = V.as_int vi.(l) in
        (match buf.Mem.data with
        | Mem.I _ -> res.(l) <- V.Vint (Mem.read_int buf idx)
        | Mem.F _ -> res.(l) <- V.Vfloat (Mem.read_float buf idx));
        addrs.(!k) <- Mem.addr buf idx;
        incr k);
    account_access c w addrs !k;
    res
  | A.Shared_load (name, ie) ->
    let vi = eval c w mask ie in
    charge c 1 (popcount mask);
    let arr = shared_array c name in
    let res = Array.make 32 (V.Vint 0) in
    let k = ref 0 in
    iter_lanes mask (fun l ->
        let idx = V.as_int vi.(l) in
        if idx < 0 || idx >= Array.length arr then
          err "kernel %s: shared array %s[%d] out of bounds (size %d)"
            c.kernel.K.kname name idx (Array.length arr);
        c.shidx.(!k) <- idx;
        incr k;
        res.(l) <- arr.(idx));
    account_shared c c.shidx !k;
    res
  | A.Buf_len be ->
    let vb = eval c w mask be in
    charge c 1 (popcount mask);
    let res = Array.make 32 (V.Vint 0) in
    iter_lanes mask (fun l ->
        res.(l) <- V.Vint (Mem.buf_length (get_buf c vb.(l))));
    res

and shared_array c name =
  match Hashtbl.find_opt c.shared name with
  | Some arr -> arr
  | None ->
    err "kernel %s: undeclared shared array %s" c.kernel.K.kname name

(* --- per-warp statement execution --------------------------------------- *)

let assign_lanes w (v : A.var) mask (vals : V.t array) =
  let dst = w.frames.(v.A.slot) in
  iter_lanes mask (fun l -> dst.(l) <- vals.(l))

let assign_all_lanes w (v : A.var) value =
  let dst = w.frames.(v.A.slot) in
  for l = 0 to 31 do
    dst.(l) <- value
  done

let rec exec_warp c w mask (s : A.stmt) =
  let mask = mask land lnot w.returned in
  if mask <> 0 then
    match s with
    | A.Let (v, e) ->
      let vals = eval c w mask e in
      charge c 1 (popcount mask);
      assign_lanes w v mask vals
    | A.Store (be, ie, xe) ->
      let vb = eval c w mask be in
      let vi = eval c w mask ie in
      let vx = eval c w mask xe in
      let n = popcount mask in
      charge c c.s.cfg.Cfg.mem_issue_cycles n;
      let addrs = Array.make 32 0 in
      let k = ref 0 in
      iter_lanes mask (fun l ->
          let buf = get_buf c vb.(l) in
          let idx = V.as_int vi.(l) in
          (match buf.Mem.data with
          | Mem.I _ -> Mem.write_int buf idx (V.as_int vx.(l))
          | Mem.F _ -> Mem.write_float buf idx (V.as_float vx.(l)));
          addrs.(!k) <- Mem.addr buf idx;
          incr k);
      account_access c w addrs !k
    | A.Shared_store (name, ie, xe) ->
      let vi = eval c w mask ie in
      let vx = eval c w mask xe in
      charge c 1 (popcount mask);
      let arr = shared_array c name in
      let k = ref 0 in
      iter_lanes mask (fun l ->
          let idx = V.as_int vi.(l) in
          if idx < 0 || idx >= Array.length arr then
            err "kernel %s: shared array %s[%d] out of bounds (size %d)"
              c.kernel.K.kname name idx (Array.length arr);
          c.shidx.(!k) <- idx;
          incr k;
          arr.(idx) <- vx.(l));
      account_shared c c.shidx !k
    | A.If (cond, t, f) ->
      let vc = eval c w mask cond in
      charge c 1 (popcount mask);
      let m_true = lanes_where mask (fun l -> V.truthy vc.(l)) in
      let m_false = mask land lnot m_true in
      if m_true <> 0 then List.iter (exec_warp c w m_true) t;
      if m_false <> 0 then List.iter (exec_warp c w m_false) f
    | A.While (cond, body) ->
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m = !continue_mask land lnot w.returned in
        if m = 0 then running := false
        else begin
          let vc = eval c w m cond in
          charge c 1 (popcount m);
          let m_true = lanes_where m (fun l -> V.truthy vc.(l)) in
          if m_true = 0 then running := false
          else begin
            List.iter (exec_warp c w m_true) body;
            continue_mask := m_true
          end
        end
      done
    | A.For (v, lo, hi, body) ->
      let vlo = eval c w mask lo in
      charge c 1 (popcount mask);
      assign_lanes w v mask vlo;
      let continue_mask = ref mask in
      let running = ref true in
      while !running do
        let m = !continue_mask land lnot w.returned in
        if m = 0 then running := false
        else begin
          let vhi = eval c w m hi in
          charge c 1 (popcount m);
          let cur = w.frames.(v.A.slot) in
          let m_true =
            lanes_where m (fun l -> V.as_int cur.(l) < V.as_int vhi.(l))
          in
          if m_true = 0 then running := false
          else begin
            List.iter (exec_warp c w m_true) body;
            let cur = w.frames.(v.A.slot) in
            charge c 1 (popcount m_true);
            iter_lanes m_true (fun l ->
                cur.(l) <- V.Vint (V.as_int cur.(l) + 1));
            continue_mask := m_true
          end
        end
      done
    | A.Atomic { op; buf = be; idx = ie; operand = oe; compare = ce; old } ->
      let vb = eval c w mask be in
      let vi = eval c w mask ie in
      let vo = eval c w mask oe in
      let vcmp = Option.map (eval c w mask) ce in
      let n = popcount mask in
      (* Atomics serialize per lane. *)
      charge c (c.s.cfg.Cfg.atomic_cycles * n) n;
      let olds = Array.make 32 (V.Vint 0) in
      let addrs = Array.make 32 0 in
      let k = ref 0 in
      iter_lanes mask (fun l ->
          let buf = get_buf c vb.(l) in
          let idx = V.as_int vi.(l) in
          let old_v =
            match buf.Mem.data with
            | Mem.I _ -> V.Vint (Mem.read_int buf idx)
            | Mem.F _ -> V.Vfloat (Mem.read_float buf idx)
          in
          olds.(l) <- old_v;
          let new_v =
            match op with
            | A.Aadd -> binop_apply A.Add old_v vo.(l)
            | A.Amin -> binop_apply A.Min old_v vo.(l)
            | A.Amax -> binop_apply A.Max old_v vo.(l)
            | A.Aexch -> vo.(l)
            | A.Acas ->
              let cmp =
                match vcmp with
                | Some vc -> vc.(l)
                | None -> err "atomicCAS without compare value"
              in
              if V.as_int old_v = V.as_int cmp then vo.(l) else old_v
          in
          (match buf.Mem.data with
          | Mem.I _ -> Mem.write_int buf idx (V.as_int new_v)
          | Mem.F _ -> Mem.write_float buf idx (V.as_float new_v));
          addrs.(!k) <- Mem.addr buf idx;
          incr k);
      account_access c w addrs !k;
      Option.iter (fun v -> assign_lanes w v mask olds) old
    | A.Launch l ->
      let vg = eval c w mask l.A.grid in
      let vb = eval c w mask l.A.block in
      let vargs = List.map (eval c w mask) l.A.args in
      let n = popcount mask in
      let ids = Array.make n (-1) in
      let k = ref 0 in
      iter_lanes mask (fun lane ->
          let grid_dim = V.as_int vg.(lane) in
          let block_dim = V.as_int vb.(lane) in
          let args = List.map (fun vec -> vec.(lane)) vargs in
          charge c c.s.cfg.Cfg.launch_issue_cycles 1;
          c.seg.dram <- c.seg.dram + c.s.cfg.Cfg.launch_dram_transactions;
          Vec.push c.pending
            { pl_callee = l.A.callee; pl_grid = grid_dim;
              pl_block = block_dim; pl_args = args; pl_ids = ids;
              pl_slot = !k; pl_parent = (c.gid, c.block_idx);
              pl_depth = c.depth + 1 };
          incr k);
      Trace.cut c.seg (Trace.Seg_launch ids)
    | A.Device_sync ->
      charge c 2 (popcount mask);
      flush_for_sync c;
      Trace.cut c.seg Trace.Seg_sync
    | A.Malloc { dst; count; scope; site } ->
      if site < 0 then err "kernel %s: unresolved Malloc site" c.kernel.K.kname;
      let vcount = eval c w mask count in
      let first = lowest_bit mask in
      let n_elems = V.as_int vcount.(first) in
      let fresh () =
        let name =
          Printf.sprintf "%s#m%d@g%d" c.kernel.K.kname site c.gid
        in
        let contention = !(c.grid_alloc_count) in
        incr c.grid_alloc_count;
        let fallbacks_before = Alloc.pool_fallbacks c.s.alloc in
        let buf, cost =
          Alloc.alloc ~contention c.s.alloc c.s.mem ~name ~count:n_elems
        in
        c.s.alloc_cycles <- c.s.alloc_cycles + cost;
        c.seg.Trace.allocs <- c.seg.Trace.allocs + 1;
        c.seg.Trace.alloc_fb <-
          c.seg.Trace.alloc_fb
          + (Alloc.pool_fallbacks c.s.alloc - fallbacks_before);
        c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
        charge c cost 1;
        V.Vbuf buf.Mem.id
      in
      let value =
        match scope with
        | A.Per_warp -> fresh ()
        | A.Per_block -> (
          match Hashtbl.find_opt c.block_mallocs site with
          | Some v ->
            charge c 2 (popcount mask);
            v
          | None ->
            let v = fresh () in
            Hashtbl.replace c.block_mallocs site v;
            v)
        | A.Per_grid -> (
          match c.grid_mallocs.(site) with
          | Some v ->
            charge c 2 (popcount mask);
            v
          | None ->
            let v = fresh () in
            c.grid_mallocs.(site) <- Some v;
            v)
      in
      assign_all_lanes w dst value
    | A.Free e ->
      let vb = eval c w mask e in
      let first = lowest_bit mask in
      let buf = get_buf c vb.(first) in
      let cost = Alloc.free c.s.alloc buf in
      c.s.alloc_cycles <- c.s.alloc_cycles + cost;
      c.seg.Trace.alloc_cyc <- c.seg.Trace.alloc_cyc + cost;
      charge c cost 1
    | A.Return -> w.returned <- w.returned lor mask
    | A.Syncthreads | A.Grid_barrier ->
      err
        "kernel %s: __syncthreads/__dp_global_barrier reached in divergent \
         (non block-uniform) control flow"
        c.kernel.K.kname

(* --- block-uniform statement walk --------------------------------------- *)

(* Evaluate [cond] on every live lane of the block; all live lanes must
   agree (the CUDA legality rule for barriers inside control flow).
   Returns [None] when no lane in the block is live. *)
and eval_uniform c (e : A.expr) : V.t option =
  let result = ref None in
  Array.iter
    (fun w ->
      let m = live_mask w in
      if m <> 0 then begin
        let vals = eval c w m e in
        charge c 1 (popcount m);
        iter_lanes m (fun l ->
            match !result with
            | None -> result := Some vals.(l)
            | Some v0 ->
              if vals.(l) <> v0 then
                err
                  "kernel %s: non-uniform condition around a block-level \
                   barrier (%s vs %s)"
                  c.kernel.K.kname (V.to_string v0) (V.to_string vals.(l)))
      end)
    c.warps;
  !result

and exec_uniform c (s : A.stmt) =
  match s with
  | A.Syncthreads ->
    Array.iter
      (fun w ->
        let m = live_mask w in
        if m <> 0 then charge c 2 (popcount m))
      c.warps
  | A.Grid_barrier ->
    (* One lane per block performs the arrival atomic; all blocks except
       the last to arrive exit (Section IV.E deadlock avoidance). *)
    charge c c.s.cfg.Cfg.atomic_cycles 1;
    Trace.cut c.seg Trace.Seg_barrier;
    if c.block_idx <> c.grid_dim - 1 then
      Array.iter (fun w -> w.returned <- w.returned lor full_mask w) c.warps
  | A.If (cond, t, f) -> (
    match eval_uniform c cond with
    | None -> ()
    | Some v -> if V.truthy v then exec_block_stmts c t else exec_block_stmts c f)
  | A.While (cond, body) ->
    let running = ref true in
    while !running do
      match eval_uniform c cond with
      | None -> running := false
      | Some v ->
        if V.truthy v then exec_block_stmts c body else running := false
    done
  | A.For (v, lo, hi, body) -> (
    match eval_uniform c lo with
    | None -> ()
    | Some v0 ->
      let i = ref (V.as_int v0) in
      let set_var () =
        Array.iter
          (fun w ->
            let m = live_mask w in
            if m <> 0 then begin
              charge c 1 (popcount m);
              iter_lanes m (fun l -> w.frames.(v.A.slot).(l) <- V.Vint !i)
            end)
          c.warps
      in
      set_var ();
      let running = ref true in
      while !running do
        match eval_uniform c hi with
        | None -> running := false
        | Some vhi ->
          if !i < V.as_int vhi then begin
            exec_block_stmts c body;
            incr i;
            set_var ()
          end
          else running := false
      done)
  | A.Let _ | A.Store _ | A.Shared_store _ | A.Device_sync | A.Atomic _
  | A.Launch _ | A.Malloc _ | A.Free _ | A.Return ->
    (* Only barrier-bearing statements are routed here. *)
    err "kernel %s: internal error: non-uniform statement in uniform walk"
      c.kernel.K.kname

and exec_block_stmts c (stmts : A.stmt list) =
  (* Execute maximal runs of barrier-free statements warp by warp; handle
     barrier-bearing statements block-uniformly. *)
  let rec split_run acc = function
    | s :: rest when not (A.needs_block_uniform s) -> split_run (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | s :: rest when A.needs_block_uniform s ->
      exec_uniform c s;
      go rest
    | stmts ->
      let run, rest = split_run [] stmts in
      Array.iter
        (fun w ->
          if live_mask w <> 0 then
            List.iter (exec_warp c w (full_mask w)) run)
        c.warps;
      go rest
  in
  go stmts

(* --- block and grid execution ------------------------------------------- *)

(* Execute one recorded launch now, patching its Seg_launch id slot. *)
and run_pending s ~deep (pl : pending_launch) =
  let gid =
    exec_grid s ~callee:pl.pl_callee ~grid_dim:pl.pl_grid
      ~block_dim:pl.pl_block ~args:pl.pl_args ~parent:(Some pl.pl_parent)
      ~depth:pl.pl_depth ~deep
  in
  pl.pl_ids.(pl.pl_slot) <- gid

(* cudaDeviceSynchronize: everything this block has launched so far must
   complete, including descendants, before execution continues — so these
   children run immediately and deeply. *)
and flush_for_sync (c : bctx) =
  let todo = Vec.to_array c.pending in
  Vec.clear c.pending;
  Array.iter (run_pending c.s ~deep:true) todo

(* Block end.  In deep mode (an enclosing sync is waiting on this subtree)
   children also run to completion now; otherwise they join the global
   breadth-order queue, which is how concurrent hardware interleaves
   independent subtrees and what keeps data-dependent launch chains near
   their breadth-first depth. *)
and flush_at_block_end (c : bctx) =
  let todo = Vec.to_array c.pending in
  Vec.clear c.pending;
  if c.deep then Array.iter (run_pending c.s ~deep:true) todo
  else Array.iter (fun pl -> Queue.push pl c.s.fifo) todo

and exec_block s ~(kernel : K.t) ~gid ~grid_dim ~block_dim ~depth ~block_idx
    ~(args : V.t list) ~grid_mallocs ~grid_alloc_count ~deep :
    Trace.block_trace =
  let cfg = s.cfg in
  let nwarps = Cfg.warps_per_block cfg ~block_dim in
  let warps =
    Array.init nwarps (fun widx ->
        let base_lane = widx * cfg.Cfg.warp_size in
        let nlanes = Int.min cfg.Cfg.warp_size (block_dim - base_lane) in
        {
          widx;
          base_lane;
          nlanes;
          frames =
            Array.init kernel.K.nslots (fun _ -> Array.make 32 (V.Vint 0));
          returned = 0;
        })
  in
  (* Bind parameters in every lane. *)
  List.iter2
    (fun (p : A.param) v ->
      Array.iter (fun w -> assign_all_lanes w p.A.pvar v) warps)
    kernel.K.params args;
  let shared = Hashtbl.create 4 in
  List.iter
    (fun (name, size) ->
      Hashtbl.replace shared name (Array.make size (V.Vint 0)))
    kernel.K.shared;
  let c =
    {
      s;
      gid;
      kernel;
      grid_dim;
      block_dim;
      depth;
      block_idx;
      shared;
      warps;
      seg = Trace.seg_builder ();
      shidx = Array.make 32 0;
      block_mallocs = Hashtbl.create 4;
      grid_mallocs;
      grid_alloc_count;
      pending = Vec.create ~dummy:R.dummy_pending;
      deep;
    }
  in
  Memmodel.block_start s.mm;
  exec_block_stmts c kernel.K.body;
  flush_at_block_end c;
  Trace.finish c.seg ~block_idx ~warps:nwarps

and exec_grid s ~callee ~grid_dim ~block_dim ~(args : V.t list) ~parent
    ~depth ~deep : int =
  let cfg = s.cfg in
  if depth > cfg.Cfg.max_nesting_depth then
    err "launch of %s exceeds max nesting depth %d" callee
      cfg.Cfg.max_nesting_depth;
  if grid_dim <= 0 || grid_dim > cfg.Cfg.max_grid_blocks then
    err "launch of %s: invalid grid dimension %d" callee grid_dim;
  if block_dim <= 0 || block_dim > cfg.Cfg.max_threads_per_block then
    err "launch of %s: invalid block dimension %d" callee block_dim;
  let kernel = K.Program.find s.prog callee in
  if not (K.is_finalized kernel) then K.finalize kernel;
  if List.length kernel.K.params <> List.length args then
    err "launch of %s: %d arguments for %d parameters" callee
      (List.length args)
      (List.length kernel.K.params);
  if Vec.length s.grids + 1 >= grid_budget then
    err "grid budget exhausted (runaway launch recursion?)";
  let gid = Vec.length s.grids in
  let grid : Trace.grid_exec =
    { gid; kernel = callee; grid_dim; block_dim; depth; parent; blocks = [||] }
  in
  Vec.push s.grids grid;
  if depth > s.max_depth then s.max_depth <- depth;
  let grid_mallocs = Array.make (Int.max 1 kernel.K.nsites) None in
  let grid_alloc_count = ref 0 in
  (* Back-end dispatch: bytecode when the kernel lowered successfully and
     this launch's argument types agree with the inference; the reference
     walker otherwise (and always under [Reference] mode). *)
  let ck =
    match s.mode with
    | Reference -> None
    | Bytecode -> (
      let lowered =
        match Hashtbl.find_opt s.ckernels callee with
        | Some c -> c
        | None ->
          let c = Bytecode.compile_kernel kernel in
          Hashtbl.replace s.ckernels callee c;
          c
      in
      match lowered with
      | Some c when Bytecode.args_ok c s.mem args -> Some c
      | _ -> None)
  in
  let blocks =
    match ck with
    | Some ck ->
      Array.init grid_dim (fun block_idx ->
          Bytecode.exec_block ck ~cfg ~mem:s.mem ~alloc:s.alloc
            ~mm:s.mm ~gid ~grid_dim ~block_dim ~depth ~block_idx
            ~args ~grid_mallocs ~grid_alloc_count ~host:s.host ~deep)
    | None ->
      Array.init grid_dim (fun block_idx ->
          exec_block s ~kernel ~gid ~grid_dim ~block_dim ~depth ~block_idx
            ~args ~grid_mallocs ~grid_alloc_count ~deep)
  in
  grid.Trace.blocks <- blocks;
  gid

let create_session ?mode ?ckernels ~cfg ~alloc prog =
  K.Program.finalize prog;
  let mode = match mode with Some m -> m | None -> !default_mode_ref in
  let ckernels =
    match ckernels with Some tbl -> tbl | None -> Hashtbl.create 16
  in
  let rec s =
    {
      cfg;
      mem = Mem.create ();
      alloc;
      prog;
      grids = Vec.create ~dummy:dummy_grid;
      roots = [];
      mm = Memmodel.create cfg;
      alloc_cycles = 0;
      max_depth = 0;
      fifo = Queue.create ();
      mode;
      ckernels;
      host =
        {
          Bytecode.flush_deep = (fun pl -> run_pending s ~deep:true pl);
          enqueue = (fun pl -> Queue.push pl s.fifo);
          add_alloc_cycles =
            (fun cost -> s.alloc_cycles <- s.alloc_cycles + cost);
        };
    }
  in
  s

(** Host-side kernel launch: executes the grid (and, transitively, its
    children) and records it as a root for the timing model. *)
let host_launch s ~kernel ~grid ~block args =
  let gid =
    exec_grid s ~callee:kernel ~grid_dim:grid ~block_dim:block ~args
      ~parent:None ~depth:0 ~deep:false
  in
  (* Drain device-side launches breadth-first until the launch tree is
     exhausted (host-side synchronization). *)
  while not (Queue.is_empty s.fifo) do
    run_pending s ~deep:false (Queue.pop s.fifo)
  done;
  s.roots <- gid :: s.roots;
  gid

let grids s = Vec.to_array s.grids

let roots s = List.rev s.roots
