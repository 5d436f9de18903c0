(** PageRank (push-based synchronous iterations, after [13]): each thread
    pushes its node's damped rank share to its out-neighbors with
    [atomicAdd]; high-degree nodes delegate the push to a child kernel.

    Dataset: citeseer_like.  Fixed iteration count so every variant does
    identical arithmetic (float addition order differs; verification uses
    a tolerance). *)

open Harness
module Csr = Dpc_graph.Csr
module Gen = Dpc_graph.Gen
module Cpu = Dpc_graph.Cpu_ref

let name = "PageRank"
let dataset_name = "citeseer_like"
let threshold = 8
let iterations = 5
let damping = 0.85

let dp_source gran =
  Printf.sprintf
    {|
__global__ void pr_init(float* next, float base, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    next[tid] = base;
  }
}
__global__ void pr_child(int* row_ptr, int* col, float* pr, float* next, int node) {
  var t = threadIdx.x;
  var start = row_ptr[node];
  var end = row_ptr[node + 1];
  var share = 0.85f * pr[node] / (float)(end - start);
  while (start + t < end) {
    atomicAdd(next, col[start + t], share);
    t = t + blockDim.x;
  }
}
__global__ void pr_parent(int* row_ptr, int* col, float* pr, float* next, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var node = tid;
    var deg = row_ptr[node + 1] - row_ptr[node];
    if (deg > threshold) {
      #pragma dp consldt(%s) work(node)
      launch pr_child<<<1, 64>>>(row_ptr, col, pr, next, node);
    } else {
      if (deg > 0) {
        var share = 0.85f * pr[node] / (float)deg;
        for (var e = row_ptr[node]; e < row_ptr[node + 1]; e = e + 1) {
          atomicAdd(next, col[e], share);
        }
      }
    }
  }
}
|}
    (Dpc_kir.Pragma.granularity_to_string gran)

let flat_source =
  {|
__global__ void pr_init(float* next, float base, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    next[tid] = base;
  }
}
__global__ void pr_flat(int* row_ptr, int* col, float* pr, float* next, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var deg = row_ptr[tid + 1] - row_ptr[tid];
    if (deg > 0) {
      var share = 0.85f * pr[tid] / (float)deg;
      for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
        atomicAdd(next, col[e], share);
      }
    }
  }
}
|}

(** The app's programs: see {!Harness.family}. *)
let family =
  { source = dp_source; parent = "pr_parent"; flat = (flat_source, "pr_flat") }

let extras_spec : (string * extra_kind) list = []

let default_scale = 6000

(* The graph and its CPU reference ranks, read-only once built. *)
let inputs_id : (Csr.t * float array) Type.Id.t = Type.Id.make ()

let run_spec (s : spec) =
  let scale = Option.value s.sp_scale ~default:default_scale in
  let seed = Option.value s.sp_seed ~default:13 in
  let variant = s.sp_variant in
  let g, expect =
    inputs s inputs_id ~app:name ~scale ~seed (fun () ->
        let g = Gen.citeseer_like ~n:scale ~seed in
        (g, Cpu.pagerank g ~iters:iterations ~d:damping))
  in
  let n = g.Csr.n in
  let p = prepare s family in
  let dev = p.dev in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" g.Csr.row_ptr in
  let col = Device.of_int_array dev ~name:"col" g.Csr.col in
  let pr =
    Device.of_float_array dev ~name:"pr"
      (Array.make n (1.0 /. Float.of_int n))
  in
  let next = Device.alloc_float dev ~name:"next" n in
  let threads = 128 in
  let grid = blocks_for ~threads n in
  let base = (1.0 -. damping) /. Float.of_int n in
  let bufs = [| pr; next |] in
  for it = 0 to iterations - 1 do
    let cur = bufs.(it mod 2) and nxt = bufs.((it + 1) mod 2) in
    Device.launch dev "pr_init" ~grid ~block:threads
      [ vbuf nxt; V.Vfloat base; V.Vint n ];
    match variant with
    | Flat ->
      Device.launch dev p.entry ~grid ~block:threads
        [ vbuf row_ptr; vbuf col; vbuf cur; vbuf nxt; V.Vint n ]
    | Basic | Cons _ ->
      Device.launch dev p.entry ~grid ~block:threads
        [ vbuf row_ptr; vbuf col; vbuf cur; vbuf nxt; V.Vint n;
          V.Vint threshold ]
  done;
  let final = bufs.(iterations mod 2) in
  check_float_arrays ~what:"pagerank" ~tol:1e-6 expect
    (Device.read_float_array dev final.Dpc_gpu.Memory.id);
  inspect_and_report ?inspect:s.sp_inspect dev
