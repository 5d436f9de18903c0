(** Recursive Breadth-First Search (BFS-Rec, after [3]).

    The kernel processes the out-neighbors of one node; whenever it
    improves a neighbor's level with [atomicMin] it recursively launches
    itself on that neighbor — the paper's Fig. 1(c) pattern with parent =
    child.  Consolidation turns this into level-synchronous BFS: each
    consolidated level buffers the improved frontier and launches one
    kernel for the next level.

    Dataset: kron_like (Kron_log16 stand-in). *)

open Harness
module Csr = Dpc_graph.Csr
module Gen = Dpc_graph.Gen
module Cpu = Dpc_graph.Cpu_ref

let name = "BFS-Rec"
let dataset_name = "kron_like"

let per_buffer_clause = function
  | Dpc_kir.Pragma.Grid -> "nnodes"
  | Dpc_kir.Pragma.Warp | Dpc_kir.Pragma.Block -> "2048"

let dp_source gran =
  Printf.sprintf
    {|
__global__ void bfs_rec(int* row_ptr, int* col, int* levels, int nnodes, int node, int depth) {
  var t = blockIdx.x * blockDim.x + threadIdx.x;
  var start = row_ptr[node];
  var end = row_ptr[node + 1];
  while (start + t < end) {
    var nb = col[start + t];
    var old = atomicMin(levels, nb, depth + 1);
    if (depth + 1 < old) {
      #pragma dp consldt(%s) buffer(custom, perBufferSize: %s) work(nb)
      launch bfs_rec<<<1, 64>>>(row_ptr, col, levels, nnodes, nb, depth + 1);
    }
    t = t + gridDim.x * blockDim.x;
  }
}
|}
    (Dpc_kir.Pragma.granularity_to_string gran)
    (per_buffer_clause gran)

let flat_source =
  Printf.sprintf
    {|
__global__ void bfs_flat(int* row_ptr, int* col, int* levels, int* changed, int level, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (levels[tid] == level) {
      for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
        var old = atomicMin(levels, col[e], level + 1);
        if (level + 1 < old) {
          changed[0] = 1;
        }
      }
    }
  }
}
|}

(** The app's programs: see {!Harness.family}. *)
let family =
  { source = dp_source; parent = "bfs_rec"; flat = (flat_source, "bfs_flat") }

let extras_spec : (string * extra_kind) list = []

let default_scale = 12  (* 2^12 nodes *)

let src = 0

(* The graph and its CPU reference levels, read-only once built. *)
let inputs_id : (Csr.t * int array) Type.Id.t = Type.Id.make ()

let run_spec (s : spec) =
  let scale = Option.value s.sp_scale ~default:default_scale in
  let seed = Option.value s.sp_seed ~default:23 in
  let g, expect =
    inputs s inputs_id ~app:name ~scale ~seed (fun () ->
        let g = Gen.kron_like ~scale ~edge_factor:10 ~seed in
        (g, Cpu.bfs_levels g ~src))
  in
  let n = g.Csr.n in
  let levels0 = Array.make n Cpu.inf in
  levels0.(src) <- 0;
  let threads = 128 in
  let p = prepare s family in
  let dev = p.dev in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" g.Csr.row_ptr in
  let col = Device.of_int_array dev ~name:"col" g.Csr.col in
  let levels = Device.of_int_array dev ~name:"levels" levels0 in
  (match s.sp_variant with
  | Flat ->
    let changed = Device.alloc_int dev ~name:"changed" 1 in
    let level = ref 0 in
    let continue = ref true in
    while !continue && !level < n do
      Device.launch dev p.entry ~grid:(blocks_for ~threads n) ~block:threads
        [ vbuf row_ptr; vbuf col; vbuf levels; vbuf changed; V.Vint !level;
          V.Vint n ];
      let c = (Device.read_int_array dev changed.Dpc_gpu.Memory.id).(0) in
      Dpc_gpu.Memory.write_int (Device.buf dev changed.Dpc_gpu.Memory.id) 0 0;
      continue := c <> 0;
      incr level
    done
  | Basic ->
    let deg = Csr.degree g src in
    Device.launch dev p.entry
      ~grid:1 ~block:(Int.max 32 (Int.min 1024 deg))
      [ vbuf row_ptr; vbuf col; vbuf levels; V.Vint n; V.Vint src; V.Vint 0 ]
  | Cons _ ->
    launch_recursive_seed p ~cfg:s.sp_cfg
      ~uniform_args:[ vbuf row_ptr; vbuf col; vbuf levels; V.Vint n; V.Vint 0 ]
      ~seed_items:[ src ]);
  check_int_arrays ~what:"bfs levels" expect
    (Device.read_int_array dev levels.Dpc_gpu.Memory.id);
  inspect_and_report ?inspect:s.sp_inspect dev
