(** Greedy graph coloring (Jones-Plassmann independent sets with random
    priorities).  Each round, an uncolored node takes color [round] iff it
    holds the locally maximal priority among its uncolored neighborhood;
    the neighborhood scan of high-degree nodes is delegated to a child
    kernel.

    Dataset: kron_like (Kron_log16 stand-in). *)

open Harness
module Csr = Dpc_graph.Csr
module Gen = Dpc_graph.Gen
module Cpu = Dpc_graph.Cpu_ref

let name = "GC"
let dataset_name = "kron_like"
let threshold = 16

let dp_source gran =
  Printf.sprintf
    {|
__global__ void gc_scan_child(int* row_ptr, int* col, int* color, int* prio, int* flag, int v) {
  var t = threadIdx.x;
  var start = row_ptr[v];
  var end = row_ptr[v + 1];
  var pv = prio[v];
  while (start + t < end) {
    var u = col[start + t];
    if (u != v && color[u] < 0) {
      if (prio[u] > pv || (prio[u] == pv && u > v)) {
        flag[v] = 0;
      }
    }
    t = t + blockDim.x;
  }
}
__global__ void gc_scan(int* row_ptr, int* col, int* color, int* prio, int* flag, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (color[tid] < 0) {
      var v = tid;
      flag[v] = 1;
      var deg = row_ptr[v + 1] - row_ptr[v];
      if (deg > threshold) {
        #pragma dp consldt(%s) work(v)
        launch gc_scan_child<<<1, 64>>>(row_ptr, col, color, prio, flag, v);
      } else {
        var pv = prio[v];
        for (var e = row_ptr[v]; e < row_ptr[v + 1]; e = e + 1) {
          var u = col[e];
          if (u != v && color[u] < 0) {
            if (prio[u] > pv || (prio[u] == pv && u > v)) {
              flag[v] = 0;
            }
          }
        }
      }
    }
  }
}
__global__ void gc_assign(int* color, int* flag, int* pending, int round, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (color[tid] < 0) {
      if (flag[tid] == 1) {
        color[tid] = round;
      } else {
        pending[0] = 1;
      }
    }
  }
}
|}
    (Dpc_kir.Pragma.granularity_to_string gran)

let flat_source =
  {|
__global__ void gc_scan_flat(int* row_ptr, int* col, int* color, int* prio, int* flag, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (color[tid] < 0) {
      flag[tid] = 1;
      var pv = prio[tid];
      for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
        var u = col[e];
        if (u != tid && color[u] < 0) {
          if (prio[u] > pv || (prio[u] == pv && u > tid)) {
            flag[tid] = 0;
          }
        }
      }
    }
  }
}
__global__ void gc_assign(int* color, int* flag, int* pending, int round, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    if (color[tid] < 0) {
      if (flag[tid] == 1) {
        color[tid] = round;
      } else {
        pending[0] = 1;
      }
    }
  }
}
|}

let programs ?cfg () =
  dp_programs ?cfg ~source:dp_source ~parent:"gc_scan" ~flat:flat_source ()

let tv_units () =
  dp_tv_units ~source:dp_source ~parent:"gc_scan" ()

let extras_spec : (string * extra_kind) list = []

let default_scale = 12  (* kron scale: 2^12 = 4096 nodes *)

(* The graph and the node priorities, read-only once built.  There is no
   precomputed reference: each run's coloring is checked on its own. *)
let inputs_id : (Csr.t * int array) Type.Id.t = Type.Id.make ()

let run_spec (s : spec) =
  let scale = Option.value s.sp_scale ~default:default_scale in
  let seed = Option.value s.sp_seed ~default:17 in
  let variant = s.sp_variant in
  let g, prio =
    inputs s inputs_id ~app:name ~scale ~seed (fun () ->
        (* Coloring needs symmetric conflict visibility. *)
        let g = Csr.symmetrize (Gen.kron_like ~scale ~edge_factor:12 ~seed) in
        let rng = Dpc_util.Rng.create (seed + 3) in
        (g, Array.init g.Csr.n (fun _ -> Dpc_util.Rng.int rng 1_000_000)))
  in
  let n = g.Csr.n in
  let p =
    prepare s ~source:dp_source ~parent:"gc_scan"
      ~flat:(flat_source, "gc_scan_flat")
  in
  let dev = p.dev in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" g.Csr.row_ptr in
  let col = Device.of_int_array dev ~name:"col" g.Csr.col in
  let color = Device.of_int_array dev ~name:"color" (Array.make n (-1)) in
  let prio_b = Device.of_int_array dev ~name:"prio" prio in
  let flag = Device.alloc_int dev ~name:"flag" n in
  let pending = Device.alloc_int dev ~name:"pending" 1 in
  let threads = 128 in
  let grid = blocks_for ~threads n in
  let scan_args = [ vbuf row_ptr; vbuf col; vbuf color; vbuf prio_b; vbuf flag ] in
  let round = ref 0 in
  let continue = ref true in
  while !continue && !round < n do
    (match variant with
    | Flat ->
      Device.launch dev p.entry ~grid ~block:threads
        (scan_args @ [ V.Vint n ])
    | Basic | Cons _ ->
      Device.launch dev p.entry ~grid ~block:threads
        (scan_args @ [ V.Vint n; V.Vint threshold ]));
    Device.launch dev "gc_assign" ~grid ~block:threads
      [ vbuf color; vbuf flag; vbuf pending; V.Vint !round; V.Vint n ];
    let pend = (Device.read_int_array dev pending.Dpc_gpu.Memory.id).(0) in
    Dpc_gpu.Memory.write_int (Device.buf dev pending.Dpc_gpu.Memory.id) 0 0;
    continue := pend <> 0;
    incr round
  done;
  let colors = Device.read_int_array dev color.Dpc_gpu.Memory.id in
  if not (Cpu.valid_coloring g colors) then
    fail "graph coloring: invalid coloring produced";
  inspect_and_report ?inspect:s.sp_inspect dev
