(** A simplified "Free Launch" transformation (Chen & Shen, MICRO 2015),
    implemented as a comparison baseline.

    Free Launch removes child kernels by {e reusing parent threads}: the
    launching thread (and, in the stronger variants, its block) executes
    the child's work in place instead of launching a grid.  The paper
    discusses it in related work and notes its key limitation — it does
    not apply to recursive computations — which this implementation
    reproduces by rejecting parent = child kernels.

    We implement the thread-reuse variant the original calls T1-style:
    the annotated launch is replaced by an inlined loop in which the
    launching thread iterates the child's logical threads sequentially.
    This eliminates every launch (like grid-level consolidation) but
    re-introduces the work imbalance that made the flat kernel slow — the
    trade-off the workload-consolidation paper is positioned against. *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module V = Dpc_kir.Value
module R = Dpc_kir.Rewrite
module Cs = Config_select

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let vint n = A.Const (V.Vint n)
let fl_tid = "__fl_tid"

type result = {
  program : K.Program.t;
  entry : string;
}

(* Inline the child kernel body at the launch site: bind the child's
   parameters to the (copied) launch arguments, then wrap the body in a
   sequential loop over the child's logical thread ids.  The child must be
   moldable in the usual thread-stride style, which our solo-block /
   solo-thread children are: substituting
     threadIdx.x -> __fl_tid, blockIdx.x -> 0, blockDim.x -> B, gridDim.x -> 1
   makes the stride loop enumerate each logical thread exactly once. *)
let inline_child (child : K.t) (l : A.launch) : A.stmt list =
  let shape = Cs.classify ~grid:l.A.grid ~block:l.A.block in
  (match shape with
  | Cs.Solo_thread | Cs.Solo_block _ -> ()
  | Cs.Multi_block ->
    unsupported
      "free launch: child %s uses a multi-block configuration; thread reuse \
       supports solo-thread/solo-block children"
      child.K.kname);
  if A.has_syncthreads_block child.K.body then
    unsupported
      "free launch: child %s synchronizes its block; a single parent thread \
       cannot emulate the barrier"
      child.K.kname;
  let contains_return body =
    let found = ref false in
    A.iter_block body
      ~on_stmt:(fun st -> match st with A.Return -> found := true | _ -> ())
      ~on_expr:(fun _ -> ());
    !found
  in
  if contains_return child.K.body then
    unsupported
      "free launch: child %s returns; inlined, that would exit the parent \
       thread instead of one logical child thread"
      child.K.kname;
  let bindings =
    List.map2
      (fun (p : A.param) arg -> A.Let (A.var p.A.pname, A.copy_expr arg))
      child.K.params l.A.args
  in
  let logical_threads =
    match l.A.block with
    | A.Const (V.Vint t) -> t
    | _ ->
      unsupported
        "free launch: child %s has a dynamic block size" child.K.kname
  in
  let body =
    R.subst_specials
      (fun s ->
        match s with
        | A.Thread_idx -> Some (A.Var (A.var fl_tid))
        | A.Block_idx -> Some (vint 0)
        | A.Block_dim -> Some (vint logical_threads)
        | A.Grid_dim -> Some (vint 1)
        | A.Lane_id -> Some (A.Binop (A.Mod, A.Var (A.var fl_tid), vint 32))
        | A.Warp_id -> Some (A.Binop (A.Div, A.Var (A.var fl_tid), vint 32))
        | A.Warp_size -> None)
      child.K.body
  in
  bindings
  @ [ A.For (A.var fl_tid, vint 0, vint logical_threads, body) ]

(** Apply free launch to the kernel named [parent] in [prog]; returns a
    fresh program in which the annotated launch has been inlined. *)
let apply ~(parent : string) (prog : K.Program.t) : result =
  let p = K.Program.find prog parent in
  let launch, _pragma = Transform.find_annotated_launch p in
  if launch.A.callee = parent then
    unsupported
      "free launch does not apply to recursive computations (kernel %s \
       launches itself); use workload consolidation instead"
      parent;
  let child = K.Program.find prog launch.A.callee in
  let body' =
    R.rw_block
      {
        R.no_hooks with
        R.launch =
          (fun (l : A.launch) ->
            match l.A.pragma with
            | Some _ -> Some (inline_child child l)
            | None -> None);
      }
      p.K.body
  in
  let out = K.Program.create () in
  List.iter
    (fun k ->
      if k.K.kname <> parent then K.Program.add out (Transform.copy_kernel k))
    (K.Program.kernels prog);
  K.Program.add out
    (K.make ~name:parent
       ~params:
         (List.map (fun (pp : A.param) -> A.param ~ty:pp.A.ptype pp.A.pname)
            p.K.params)
       ~shared:p.K.shared body');
  K.Program.finalize out;
  { program = out; entry = parent }
