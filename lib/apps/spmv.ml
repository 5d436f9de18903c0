(** Sparse Matrix-Vector multiplication (CSR scalar kernel, after
    Greathouse-Daga [14]): one thread per row; long rows are delegated to
    a cooperative child kernel that gathers partial products into shared
    memory and combines them on a designated thread.  The partials are
    scattered with a stride of four words ([part[4*t]] — the textbook
    strided-layout shared-memory access whose lanes collide four to a
    bank), so the deep memory-model presets charge bank-conflict replays
    on every partial store while the static race checker can still prove
    the strided indexes thread-distinct.

    Dataset: citeseer_like used as a sparse matrix (values = weights). *)

open Harness
module Csr = Dpc_graph.Csr
module Gen = Dpc_graph.Gen
module Cpu = Dpc_graph.Cpu_ref

let name = "SpMV"
let dataset_name = "citeseer_like"
let threshold = 8

let dp_source gran =
  Printf.sprintf
    {|
__global__ void spmv_child(int* row_ptr, int* col, float* vals, float* x, float* y, int row) {
  __shared__ float part[256];
  var t = threadIdx.x;
  var acc = 0.0f;
  var k = row_ptr[row] + t;
  var end = row_ptr[row + 1];
  while (k < end) {
    acc = acc + vals[k] * x[col[k]];
    k = k + blockDim.x;
  }
  part[threadIdx.x * 4] = acc;
  __syncthreads();
  if (t == 0) {
    var tot = 0.0f;
    var j = 0;
    while (j < blockDim.x) {
      tot = tot + part[j * 4];
      j = j + 1;
    }
    atomicAdd(y, row, tot);
  }
}
__global__ void spmv_parent(int* row_ptr, int* col, float* vals, float* x, float* y, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var row = tid;
    var deg = row_ptr[row + 1] - row_ptr[row];
    if (deg > threshold) {
      #pragma dp consldt(%s) work(row)
      launch spmv_child<<<1, 64>>>(row_ptr, col, vals, x, y, row);
    } else {
      var acc = 0.0f;
      for (var e = row_ptr[row]; e < row_ptr[row + 1]; e = e + 1) {
        acc = acc + vals[e] * x[col[e]];
      }
      y[row] = acc;
    }
  }
}
|}
    (Dpc_kir.Pragma.granularity_to_string gran)

let flat_source =
  {|
__global__ void spmv_flat(int* row_ptr, int* col, float* vals, float* x, float* y, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var acc = 0.0f;
    for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
      acc = acc + vals[e] * x[col[e]];
    }
    y[tid] = acc;
  }
}
|}

(** The app's programs: see {!Harness.family}. *)
let family =
  { source = dp_source; parent = "spmv_parent";
    flat = (flat_source, "spmv_flat") }

let extras_spec : (string * extra_kind) list = []

let default_scale = 8000

(* Read-only once built: the matrix, its values as floats, the input
   vector and the CPU reference product. *)
type inputs = { g : Csr.t; vals : float array; x : float array;
                expect : float array }

let inputs_id : inputs Type.Id.t = Type.Id.make ()

let run_spec (s : spec) =
  let scale = Option.value s.sp_scale ~default:default_scale in
  let seed = Option.value s.sp_seed ~default:11 in
  let variant = s.sp_variant in
  let { g; vals; x; expect } =
    inputs s inputs_id ~app:name ~scale ~seed (fun () ->
        let g = Gen.citeseer_like ~n:scale ~seed in
        let rng = Dpc_util.Rng.create (seed + 1) in
        let x = Array.init g.Csr.n (fun _ -> Dpc_util.Rng.float rng) in
        { g; vals = Array.map Float.of_int g.Csr.weights; x;
          expect = Cpu.spmv g x })
  in
  let p = prepare s family in
  let dev = p.dev in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" g.Csr.row_ptr in
  let col = Device.of_int_array dev ~name:"col" g.Csr.col in
  let vals = Device.of_float_array dev ~name:"vals" vals in
  let xb = Device.of_float_array dev ~name:"x" x in
  let y = Device.alloc_float dev ~name:"y" g.Csr.n in
  let threads = 128 in
  let args =
    [ vbuf row_ptr; vbuf col; vbuf vals; vbuf xb; vbuf y; V.Vint g.Csr.n ]
  in
  (match variant with
  | Flat ->
    Device.launch dev p.entry ~grid:(blocks_for ~threads g.Csr.n)
      ~block:threads args
  | Basic | Cons _ ->
    Device.launch dev p.entry ~grid:(blocks_for ~threads g.Csr.n)
      ~block:threads
      (args @ [ V.Vint threshold ]));
  check_float_arrays ~what:"spmv y" ~tol:1e-9 expect
    (Device.read_float_array dev y.Dpc_gpu.Memory.id);
  inspect_and_report ?inspect:s.sp_inspect dev
