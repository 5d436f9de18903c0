(* Irregular loops and dynamic parallelism (the paper's Fig. 1(b) pattern).

   A ragged "neighbor scaling" workload: row i has a data-dependent number
   of elements.  We run it four ways — flat, basic-dp, and consolidated at
   block and grid level — and compare the reports, reproducing in
   miniature what Figs. 7-9 show.

     dune exec examples/irregular_loop.exe *)

module Device = Dpc_sim.Device
module M = Dpc_sim.Metrics
module V = Dpc_kir.Value
module Mem = Dpc_gpu.Memory

(* The annotated DP source: threads owning heavy rows delegate to a child
   kernel; the #pragma dp directive tells the consolidation compiler what
   to buffer. *)
let dp_source granularity =
  Printf.sprintf
    {|
__global__ void scale_child(int* row_ptr, int* data, int row) {
  var t = threadIdx.x;
  var start = row_ptr[row];
  var end = row_ptr[row + 1];
  while (start + t < end) {
    data[start + t] = data[start + t] * 3;
    t = t + blockDim.x;
  }
}
__global__ void scale_rows(int* row_ptr, int* data, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var row = tid;
    var deg = row_ptr[row + 1] - row_ptr[row];
    if (deg > threshold) {
      #pragma dp consldt(%s) work(row)
      launch scale_child<<<1, 64>>>(row_ptr, data, row);
    } else {
      for (var e = row_ptr[row]; e < row_ptr[row + 1]; e = e + 1) {
        data[e] = data[e] * 3;
      }
    }
  }
}
|}
    granularity

let flat_source =
  {|
__global__ void scale_flat(int* row_ptr, int* data, int n) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    for (var e = row_ptr[tid]; e < row_ptr[tid + 1]; e = e + 1) {
      data[e] = data[e] * 3;
    }
  }
}
|}

let n = 4000

(* Ragged rows: mostly small, a heavy tail (the irregularity that makes
   flat kernels diverge). *)
let make_input () =
  let g = Dpc_graph.Gen.citeseer_like ~n ~seed:5 in
  (g.Dpc_graph.Csr.row_ptr, Array.init (Dpc_graph.Csr.nnz g) (fun i -> i))

let run_variant label program entry extra_args =
  let row_ptr_data, data0 = make_input () in
  let dev = Device.create program in
  let row_ptr = Device.of_int_array dev ~name:"row_ptr" row_ptr_data in
  let data = Device.of_int_array dev ~name:"data" data0 in
  Device.launch dev entry ~grid:((n + 127) / 128) ~block:128
    ([ V.Vbuf row_ptr.Mem.id; V.Vbuf data.Mem.id; V.Vint n ] @ extra_args);
  let got = Device.read_int_array dev data.Mem.id in
  Array.iteri
    (fun i v -> assert (v = data0.(i) * 3))
    got;
  let r = Device.report dev in
  Printf.printf "%-22s %10.0f cycles  %6d launches  eff %5.1f%%  occ %5.1f%%\n"
    label r.M.cycles r.M.device_launches
    (100. *. r.M.warp_efficiency) (100. *. r.M.occupancy);
  r

let () =
  Printf.printf "ragged scaling over %d rows (power-law row lengths)\n\n" n;
  let flat =
    run_variant "no-dp (flat)"
      (Dpc_minicu.Parser.parse_program flat_source)
      "scale_flat" []
  in
  let basic =
    run_variant "basic-dp"
      (Dpc_minicu.Parser.parse_program (dp_source "grid"))
      "scale_rows" [ V.Vint 16 ]
  in
  let consolidated gran =
    let prog = Dpc_minicu.Parser.parse_program (dp_source gran) in
    let r = Dpc.Transform.apply ~cfg:Dpc_gpu.Config.k20c ~parent:"scale_rows" prog in
    run_variant (gran ^ "-level consolidated") r.Dpc.Transform.program
      r.Dpc.Transform.entry [ V.Vint 16 ]
  in
  let block = consolidated "block" in
  let grid = consolidated "grid" in
  Printf.printf
    "\nspeedup over basic-dp: flat %.1fx, block-level %.1fx, grid-level %.1fx\n"
    (basic.M.cycles /. flat.M.cycles)
    (basic.M.cycles /. block.M.cycles)
    (basic.M.cycles /. grid.M.cycles)

(* Device-utilization timelines: basic-dp's long sparse tail of tiny
   kernels vs the dense burst of the consolidated kernel. *)
let () =
  let show label source entry extra =
    let row_ptr_data, data0 = make_input () in
    let dev = Device.create source in
    let row_ptr = Device.of_int_array dev ~name:"row_ptr" row_ptr_data in
    let data = Device.of_int_array dev ~name:"data" data0 in
    Device.launch dev entry ~grid:((n + 127) / 128) ~block:128
      ([ V.Vbuf row_ptr.Mem.id; V.Vbuf data.Mem.id; V.Vint n ] @ extra);
    (* One replay: the report is cached from the profiled one. *)
    let events = Device.profile dev in
    Printf.printf "\n%s:\n%s" label
      (Dpc_sim.Timeline.of_events (Device.config dev)
         ~total_cycles:(Device.report dev).M.cycles events)
  in
  show "basic-dp utilization"
    (Dpc_minicu.Parser.parse_program (dp_source "grid"))
    "scale_rows" [ V.Vint 16 ];
  let r =
    Dpc.Transform.apply ~cfg:Dpc_gpu.Config.k20c ~parent:"scale_rows"
      (Dpc_minicu.Parser.parse_program (dp_source "grid"))
  in
  show "grid-level consolidated utilization" r.Dpc.Transform.program
    r.Dpc.Transform.entry [ V.Vint 16 ]
