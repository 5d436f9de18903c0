(** Single-Source Shortest Path (Bellman-Ford relaxation sweeps, after
    Harish-Narayanan [5]).

    Each sweep assigns one thread per node; the thread relaxes all of its
    node's out-edges with [atomicMin].  In the DP variants, nodes whose
    degree exceeds [threshold] delegate the relaxation to a child kernel
    (the paper's Fig. 1(b)); the [no-dp] variant always loops locally.
    The host iterates sweeps until a sweep changes nothing.

    Dataset: citeseer_like (power-law citation network). *)

open Harness
module Csr = Dpc_graph.Csr
module Gen = Dpc_graph.Gen
module Cpu = Dpc_graph.Cpu_ref

let name = "SSSP"
let dataset_name = "citeseer_like"
let threshold = 8
let inf = Cpu.inf

let dp_source gran =
  Printf.sprintf
    {|
__global__ void sssp_child(int* row_ptr, int* col, int* w, int* dist, int* changed, int node) {
  var t = threadIdx.x;
  var start = row_ptr[node];
  var end = row_ptr[node + 1];
  var du = dist[node];
  if (du < %d) {
    while (start + t < end) {
      var alt = du + w[start + t];
      var old = atomicMin(dist, col[start + t], alt);
      if (alt < old) {
        changed[0] = 1;
      }
      t = t + blockDim.x;
    }
  }
}
__global__ void sssp_parent(int* row_ptr, int* col, int* w, int* dist, int* changed, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var node = tid;
    var deg = row_ptr[node + 1] - row_ptr[node];
    if (deg > threshold) {
      #pragma dp consldt(%s) work(node)
      launch sssp_child<<<1, 64>>>(row_ptr, col, w, dist, changed, node);
    } else {
      var du = dist[node];
      if (du < %d) {
        for (var e = row_ptr[node]; e < row_ptr[node + 1]; e = e + 1) {
          var alt = du + w[e];
          var old = atomicMin(dist, col[e], alt);
          if (alt < old) {
            changed[0] = 1;
          }
        }
      }
    }
  }
}
|}
    inf
    (Dpc_kir.Pragma.granularity_to_string gran)
    inf

let flat_source =
  Printf.sprintf
    {|
__global__ void sssp_flat(int* row_ptr, int* col, int* w, int* dist, int* changed, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var du = dist[tid];
    if (du < %d) {
      for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
        var alt = du + w[e];
        var old = atomicMin(dist, col[e], alt);
        if (alt < old) {
          changed[0] = 1;
        }
      }
    }
  }
}
|}
    inf

let programs ?cfg () =
  dp_programs ?cfg ~source:dp_source ~parent:"sssp_parent" ~flat:flat_source
    ()

let tv_units () =
  dp_tv_units ~source:dp_source ~parent:"sssp_parent" ()

let extras_spec : (string * extra_kind) list = []

let default_scale = 3000

let src = 0

(* The graph and its CPU reference distances, read-only once built. *)
let inputs_id : (Csr.t * int array) Type.Id.t = Type.Id.make ()

let run_spec (s : spec) =
  let scale = Option.value s.sp_scale ~default:default_scale in
  let seed = Option.value s.sp_seed ~default:7 in
  let variant = s.sp_variant in
  let g, expect =
    inputs s inputs_id ~app:name ~scale ~seed (fun () ->
        let g = Gen.citeseer_like ~n:scale ~seed in
        (g, Cpu.sssp g ~src))
  in
  let p =
    prepare s ~source:dp_source ~parent:"sssp_parent"
      ~flat:(flat_source, "sssp_flat")
  in
  let dev = p.dev in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" g.Csr.row_ptr in
  let col = Device.of_int_array dev ~name:"col" g.Csr.col in
  let w = Device.of_int_array dev ~name:"w" g.Csr.weights in
  let dist0 = Array.make g.Csr.n inf in
  dist0.(src) <- 0;
  let dist = Device.of_int_array dev ~name:"dist" dist0 in
  let changed = Device.alloc_int dev ~name:"changed" 1 in
  let threads = 128 in
  let grid = blocks_for ~threads g.Csr.n in
  let base_args = [ vbuf row_ptr; vbuf col; vbuf w; vbuf dist; vbuf changed ] in
  let sweep () =
    (match variant with
    | Flat ->
      Device.launch dev p.entry ~grid ~block:threads
        (base_args @ [ V.Vint g.Csr.n ])
    | Basic | Cons _ ->
      Device.launch dev p.entry ~grid ~block:threads
        (base_args @ [ V.Vint g.Csr.n; V.Vint threshold ]));
    let c = (Device.read_int_array dev changed.Dpc_gpu.Memory.id).(0) in
    Dpc_gpu.Memory.write_int (Device.buf dev changed.Dpc_gpu.Memory.id) 0 0;
    c <> 0
  in
  let rec loop i = if i < g.Csr.n && sweep () then loop (i + 1) in
  loop 0;
  check_int_arrays ~what:"sssp distances" expect
    (Device.read_int_array dev dist.Dpc_gpu.Memory.id);
  inspect_and_report ?inspect:s.sp_inspect dev
