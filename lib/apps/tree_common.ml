(** Shared driver for the recursive tree benchmarks (TH, TD), the paper's
    Fig. 1(c) pattern with postwork:

    - each thread of an invocation handles one child of [node];
    - leaves get their base value; internal children are launched
      recursively;
    - after [cudaDeviceSynchronize], the postwork combines the children's
      results (max+1 for heights, sum+1 for descendant counts).

    The host processes the root: launches the kernel on it (basic-dp) or
    seeds the consolidated kernel with it, then computes the root's own
    value from its children — the same division of labor in every
    variant. *)

open Harness
module Tree = Dpc_graph.Tree

(* [combine] is the MiniCU expression combining an accumulator [acc] with
   one child value [cv]; [base] the leaf value; [init] the accumulator
   start. *)
type spec = {
  app_name : string;
  kernel : string;
  base : int;
  acc_init : int;
  acc_update : string;  (** statement updating [acc] from [out[...]] *)
  cpu_ref : Tree.t -> int array;
  host_combine : int array -> Tree.t -> int -> int;
      (** root value from children values *)
}

(* Buffer capacity per consolidation domain: the whole node set for the
   single grid-level buffer; a tuned 2048-item clause for the many per-warp
   and per-block buffers (overflowing items fall back to direct launches). *)
let per_buffer_clause = function
  | Dpc_kir.Pragma.Grid -> "nnodes"
  | Dpc_kir.Pragma.Warp | Dpc_kir.Pragma.Block -> "2048"

let dp_source spec ~child_block gran =
  Printf.sprintf
    {|
__global__ void %s(int* child_ptr, int* child_list, int* out, int nnodes, int node) {
  var t = blockIdx.x * blockDim.x + threadIdx.x;
  var cstart = child_ptr[node];
  var nchild = child_ptr[node + 1] - cstart;
  var c = 0 - 1;
  if (t < nchild) {
    c = child_list[cstart + t];
    var nc = child_ptr[c + 1] - child_ptr[c];
    if (nc == 0) {
      out[c] = %d;
    } else {
      #pragma dp consldt(%s) buffer(custom, perBufferSize: %s) work(c)
      launch %s<<<1, %d>>>(child_ptr, child_list, out, nnodes, c);
    }
  }
  cudaDeviceSynchronize();
  if (c >= 0) {
    var nc2 = child_ptr[c + 1] - child_ptr[c];
    if (nc2 > 0) {
      var acc = %d;
      for (var k = child_ptr[c]; k < child_ptr[c] + nc2; k = k + 1) {
        %s
      }
      out[c] = acc;
    }
  }
}
|}
    spec.kernel spec.base
    (Dpc_kir.Pragma.granularity_to_string gran)
    (per_buffer_clause gran) spec.kernel child_block spec.acc_init
    spec.acc_update

(* Flat implementation: the standard flattening of tree recursion — first
   compute node depths with top-down sweeps, then combine bottom-up level
   by level. *)
let flat_source spec =
  Printf.sprintf
    {|
__global__ void depth_sweep(int* child_ptr, int* child_list, int* depth_of, int* changed, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var d = depth_of[tid];
    if (d >= 0) {
      for (var k = child_ptr[tid]; k < child_ptr[tid + 1]; k = k + 1) {
        var c = child_list[k];
        if (depth_of[c] < 0) {
          depth_of[c] = d + 1;
          changed[0] = 1;
        }
      }
    }
  }
}
__global__ void %s_flat(int* child_ptr, int* child_list, int* out, int* depth_of, int level, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (depth_of[tid] == level) {
      var nc = child_ptr[tid + 1] - child_ptr[tid];
      if (nc == 0) {
        out[tid] = %d;
      } else {
        var acc = %d;
        var c = tid;
        for (var k = child_ptr[c]; k < child_ptr[c] + nc; k = k + 1) {
          %s
        }
        out[tid] = acc;
      }
    }
  }
}
|}
    spec.kernel spec.base spec.acc_init spec.acc_update

(* The lint surface uses a representative child block size; [run_spec]
   tunes it to the dataset's fan-out, which only changes a launch
   constant. *)
let programs spec ?cfg () =
  dp_programs ?cfg
    ~source:(dp_source spec ~child_block:128)
    ~parent:spec.kernel
    ~flat:(flat_source spec)
    ()

let tv_units spec () =
  dp_tv_units
    ~source:(dp_source spec ~child_block:128)
    ~parent:spec.kernel ()

let extras_spec : (string * extra_kind) list =
  [ ("max_nodes", Xint); ("dataset", Xenum [ "dataset1"; "dataset2" ]) ]

(* App-specific knobs carried in [Harness.spec] extras: [max_nodes] caps
   the generated tree's node count; [dataset] picks dataset1/dataset2.
   [Dpc_engine.Scenario.make] has already checked both against
   {!extras_spec}. *)
let dataset_of_extras hs =
  match Harness.extra_str hs "dataset" with
  | Some "dataset2" -> `Dataset2
  | _ -> `Dataset1

(** The tree knobs spelled as {!Harness.spec} extras. *)
let extras ?max_nodes ~dataset () =
  ( "dataset",
    match dataset with `Dataset1 -> "dataset1" | `Dataset2 -> "dataset2" )
  ::
  (match max_nodes with
  | None -> []
  | Some m -> [ ("max_nodes", string_of_int m) ])

(* The tree, the child block size tuned to it and the CPU reference
   values, read-only once built. *)
let inputs_id : (Tree.t * int * int array) Type.Id.t = Type.Id.make ()

(** [Harness.spec]'s [sp_scale] is the tree shrink divisor (larger =
    smaller tree, default 4); see {!Dpc_graph.Tree.dataset1}. *)
let run_spec spec (hs : Harness.spec) =
  let shrink = Option.value hs.Harness.sp_scale ~default:4 in
  let seed = Option.value hs.Harness.sp_seed ~default:29 in
  let max_nodes = Harness.extra_int hs "max_nodes" in
  let dataset = dataset_of_extras hs in
  let tree, child_block, expect =
    Harness.inputs hs inputs_id ~app:spec.app_name ~scale:shrink ~seed
      ~extras:(extras ?max_nodes ~dataset ()) (fun () ->
        let tree =
          match dataset with
          | `Dataset1 -> Tree.dataset1 ~shrink ?max_nodes ~seed ()
          | `Dataset2 -> Tree.dataset2 ~shrink ?max_nodes ~seed ()
        in
        (* Child blocks sized to the dataset's maximum fan-out, rounded up
           to a warp multiple — the same tuning the hand-written benchmarks
           use. *)
        let max_children =
          let m = ref 0 in
          for v = 0 to tree.Tree.n - 1 do
            m := Int.max !m (Tree.nchildren tree v)
          done;
          !m
        in
        let child_block =
          Int.min 256 (Int.max 32 ((max_children + 31) / 32 * 32))
        in
        (tree, child_block, spec.cpu_ref tree))
  in
  let n = tree.Tree.n in
  let threads = 128 in
  let p =
    prepare hs ~source:(dp_source spec ~child_block) ~parent:spec.kernel
      ~flat:(flat_source spec, spec.kernel ^ "_flat")
  in
  let dev = p.dev in
  let cp = Device.of_int_array dev ~name:"child_ptr" tree.Tree.child_ptr in
  let cl = Device.of_int_array dev ~name:"child_list" tree.Tree.child_list in
  let out = Device.alloc_int dev ~name:"out" n in
  (match hs.Harness.sp_variant with
  | Flat ->
    let d0 = Array.make n (-1) in
    d0.(0) <- 0;
    let depth_of = Device.of_int_array dev ~name:"depth_of" d0 in
    let changed = Device.alloc_int dev ~name:"changed" 1 in
    (* Phase 1: compute depths top-down. *)
    let continue = ref true in
    while !continue do
      Device.launch dev "depth_sweep" ~grid:(blocks_for ~threads n)
        ~block:threads
        [ vbuf cp; vbuf cl; vbuf depth_of; vbuf changed; V.Vint n ];
      let c = (Device.read_int_array dev changed.Dpc_gpu.Memory.id).(0) in
      Dpc_gpu.Memory.write_int (Device.buf dev changed.Dpc_gpu.Memory.id) 0 0;
      continue := c <> 0
    done;
    (* Phase 2: combine bottom-up. *)
    for level = tree.Tree.depth downto 1 do
      Device.launch dev p.entry ~grid:(blocks_for ~threads n) ~block:threads
        [ vbuf cp; vbuf cl; vbuf out; vbuf depth_of; V.Vint level; V.Vint n ]
    done
  | Basic ->
    Device.launch dev p.entry ~grid:1 ~block:child_block
      [ vbuf cp; vbuf cl; vbuf out; V.Vint n; V.Vint 0 ]
  | Cons _ ->
    launch_recursive_seed p ~cfg:hs.Harness.sp_cfg
      ~uniform_args:[ vbuf cp; vbuf cl; vbuf out; V.Vint n ]
      ~seed_items:[ 0 ]);
  let report = inspect_and_report ?inspect:hs.Harness.sp_inspect dev in
  let got = Device.read_int_array dev out.Dpc_gpu.Memory.id in
  (* The host owns the root's combine step in every variant. *)
  got.(0) <- spec.host_combine got tree 0;
  check_int_arrays ~what:(spec.app_name ^ " values") expect got;
  report
