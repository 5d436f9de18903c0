(* A1/A2/A3/A5/A7 are scenario lists run on the caller's session, so
   they fan out over its pool and share its caches; [run_all] preserves
   submission order, so the tables are identical for any job count.
   Device knobs (launch latency, pool capacity, scheduler) are scenario
   fields.  A4 and A6 run hand-written MiniCU programs directly on a
   [Device], serially: together they take a fraction of a second. *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Cfg = Dpc_gpu.Config
module Mem = Dpc_gpu.Memory
module V = Dpc_kir.Value
module Pragma = Dpc_kir.Pragma
module Csr = Dpc_graph.Csr
module Device = Dpc_sim.Device
module Table = Dpc_util.Table
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session

let grid = H.Cons Pragma.Grid

let cycles (r : M.report) = Printf.sprintf "%.0f" r.M.cycles

(* Run [a x] and [b x] for every [x] in one batch: (x, a report,
   b report) per [x], in order. *)
let paired session xs a b =
  let rs =
    Array.of_list
      (List.map Session.report
         (Session.run_all session (List.concat_map (fun x -> [ a x; b x ]) xs)))
  in
  List.mapi (fun i x -> (x, rs.(2 * i), rs.(2 * i + 1))) xs

(* Rows [x; a cycles; b cycles; a/b] of a two-variant cycle sweep. *)
let ratio_table ~title ~headers session xs a b =
  let t =
    Table.create ~title ~headers ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  List.iter
    (fun (x, ra, rb) ->
      Table.add_row t
        [ string_of_int x; cycles ra; cycles rb;
          Table.fmt_ratio (ra.M.cycles /. rb.M.cycles) ])
    (paired session xs a b);
  t

(* A1: basic-dp should track the device-side launch latency linearly;
   grid-level should barely notice. *)
let launch_latency session =
  let sc lat =
    Scenario.make ~app:"SSSP"
      ~cfg_overrides:[ ("device_launch_latency", lat) ]
      ~scale:1500
  in
  ratio_table
    ~title:
      "Ablation A1: device-launch-latency sweep, SSSP cycles (basic-dp vs \
       grid-level)"
    ~headers:[ "latency (cycles)"; "basic-dp"; "grid-level"; "ratio" ]
    session [ 1_000; 5_000; 20_000 ]
    (fun lat -> sc lat H.Basic)
    (fun lat -> sc lat grid)

(* A2: processor-sharing vs FCFS SMX scheduling. *)
let scheduler session =
  let t =
    Table.create ~title:"Ablation A2: SMX scheduler model, SSSP cycles"
      ~headers:[ "variant"; "processor sharing"; "fcfs (no contention)" ]
      ~aligns:Table.[ Left; Right; Right ] ()
  in
  let sc scheduler v = Scenario.make ~app:"SSSP" ~scale:1500 ~scheduler v in
  List.iter
    (fun (v, ps, fcfs) ->
      Table.add_row t [ H.variant_to_string v; cycles ps; cycles fcfs ])
    (paired session [ H.Basic; grid ]
       (sc Dpc_sim.Timing.Processor_sharing)
       (sc Dpc_sim.Timing.Fcfs));
  t

(* A3: the pending-pool capacity sweep — the cudaDeviceSetLimit analogue
   the paper mentions in Section III.B. *)
let pool_capacity session =
  let t =
    Table.create
      ~title:
        "Ablation A3: fixed pending-pool capacity, SSSP basic-dp \
         (cudaDeviceSetLimit analogue)"
      ~headers:
        [ "pool entries"; "cycles"; "virtualized launches"; "max pending" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  let caps = [ 256; 2048; 16384 ] in
  List.iter2
    (fun cap (o : Session.outcome) ->
      let r = Session.report o in
      Table.add_row t
        [ string_of_int cap; cycles r;
          string_of_int r.M.virtualized_launches;
          string_of_int r.M.max_pending ])
    caps
    (Session.run_all session
       (List.map
          (fun cap ->
            Scenario.make ~app:"SSSP"
              ~cfg_overrides:[ ("fixed_pool_capacity", cap) ]
              ~scale:3000 H.Basic)
          caps));
  t

(* A5: the basic-dp slowdown grows with problem scale (why the paper's
   full-size runs show 2-3 orders of magnitude).  All eight runs share
   one program build per variant through the session cache. *)
let scale_growth session =
  let sc v n = Scenario.make ~app:"SSSP" ~scale:n v in
  ratio_table
    ~title:"Ablation A5: basic-dp slowdown vs no-dp as SSSP scale grows"
    ~headers:[ "nodes"; "basic-dp cycles"; "no-dp cycles"; "slowdown" ]
    session [ 1000; 2000; 4000; 8000 ] (sc H.Basic) (sc H.Flat)

(* --- the ragged workload of A4 and A6 ------------------------------------ *)

(* A citeseer-like graph whose high-degree nodes launch a child grid
   (annotated with [pragma]) and whose low-degree nodes loop inline. *)
let ragged_n = 3000

let ragged_graph () = Dpc_graph.Gen.citeseer_like ~n:ragged_n ~seed:5

let ragged_source pragma =
  Printf.sprintf
    {|
__global__ void child(int* row_ptr, int* data, int node) {
  var t = threadIdx.x;
  var start = row_ptr[node];
  var end = row_ptr[node + 1];
  while (start + t < end) {
    data[start + t] = data[start + t] * 2;
    t = t + blockDim.x;
  }
}
__global__ void parent(int* row_ptr, int* data, int n, int threshold) {
  var tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) {
    var node = tid;
    var deg = row_ptr[node + 1] - row_ptr[node];
    if (deg > threshold) {
      #pragma dp %s
      launch child<<<1, 64>>>(row_ptr, data, node);
    } else {
      for (var j = row_ptr[node]; j < row_ptr[node + 1]; j = j + 1) {
        data[j] = data[j] * 2;
      }
    }
  }
}
|}
    pragma

let ragged_program pragma =
  Dpc_minicu.Parser.parse_program (ragged_source pragma)

(* One host launch of [entry] over the ragged graph on a fresh k20c. *)
let run_ragged g program entry =
  let dev = Device.create ~cfg:Cfg.k20c program in
  let rp = Device.of_int_array dev ~name:"rp" g.Csr.row_ptr in
  let data =
    Device.of_int_array dev ~name:"data" (Array.init (Csr.nnz g) Fun.id)
  in
  Device.launch dev entry ~grid:((ragged_n + 127) / 128) ~block:128
    [ V.Vbuf rp.Mem.id; V.Vbuf data.Mem.id; V.Vint ragged_n; V.Vint 8 ];
  Device.report dev

let consolidate prog =
  let r = Dpc.Transform.apply ~cfg:Cfg.k20c ~parent:"parent" prog in
  (r.Dpc.Transform.program, r.Dpc.Transform.entry)

(* A4: small explicit perBufferSize values overflow and fall back to
   direct launches; the report counts the launches and their cycles. *)
let buffer_sizing () =
  let t =
    Table.create
      ~title:
        "Ablation A4: perBufferSize vs overflow fallback (ragged workload, \
         block-level)"
      ~headers:[ "perBufferSize (items)"; "cycles"; "device launches" ]
      ~aligns:Table.[ Left; Right; Right ] ()
  in
  let g = ragged_graph () in
  List.map
    (fun cap ->
      let program, entry =
        consolidate
          (ragged_program
             (Printf.sprintf
                "consldt(block) buffer(custom, perBufferSize: %d) work(node)"
                cap))
      in
      let r = run_ragged g program entry in
      [ string_of_int cap; cycles r; string_of_int r.M.device_launches ])
    [ 4; 32; 512 ]
  |> List.iter (Table.add_row t);
  t

(* A6: the Free Launch (MICRO'15) thread-reuse baseline vs consolidation
   on the ragged workload — the related-work comparison of Section VI. *)
let free_launch () =
  let t =
    Table.create
      ~title:
        "Ablation A6: Free Launch (thread reuse) vs workload consolidation \
         (ragged workload)"
      ~headers:[ "variant"; "cycles"; "device launches"; "warp efficiency" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  let g = ragged_graph () in
  let prog () = ragged_program "consldt(grid) work(node)" in
  let fl = Dpc.Free_launch.apply ~parent:"parent" (prog ()) in
  List.map
    (fun (label, (program, entry)) ->
      let r = run_ragged g program entry in
      [ label; cycles r; string_of_int r.M.device_launches;
        Table.fmt_pct r.M.warp_efficiency ])
    [ ("basic-dp", (prog (), "parent"));
      ( "free launch (thread reuse)",
        (fl.Dpc.Free_launch.program, fl.Dpc.Free_launch.entry) );
      ("grid-level consolidation", consolidate (prog ())) ]
  |> List.iter (Table.add_row t);
  t

(* Named lets fix the run order (a list literal's is unspecified), so
   progress lines come out A1 first. *)
let tables session =
  let a1 = launch_latency session in
  let a2 = scheduler session in
  let a3 = pool_capacity session in
  let a4 = buffer_sizing () in
  let a5 = scale_growth session in
  let a6 = free_launch () in
  [ a1; a2; a3; a4; a5; a6 ]

(* --- A7: the granularity crossover across device presets ---------------- *)

(* The evaluation suite behind figs 7-10 re-collected under each device
   preset.  [k20c] is the paper's flat memory model; the deep presets
   additionally charge shared-memory bank-conflict replays and MSHR
   occupancy stalls and issue up to two instructions per warp per cycle,
   which reprices the consolidation granularities differently per app,
   so the best granularity can shift (a "crossover").  The deep presets
   must engage the new accounting (nonzero replay/stall totals), [k20c]
   must not (both totals exactly zero), and at least one crossover must
   appear, or this fails. *)
let presets = [ "k20c"; "k20c-deep"; "milo832" ]

let granularity_by_preset session =
  let cons = [ H.Cons Pragma.Warp; H.Cons Pragma.Block; grid ] in
  let suites =
    List.map
      (fun preset ->
        (preset, Suite.collect ~cfg:preset ~session ()))
      presets
  in
  (* Fastest consolidated variant by simulated cycles; ties (which the
     deterministic simulator reproduces exactly) go to the coarser
     granularity last in [cons], matching the paper's preference. *)
  let best row =
    List.fold_left
      (fun (bv, bc) v ->
        let c = (Suite.report_of row v).M.cycles in
        if c <= bc then (v, c) else (bv, bc))
      (H.Cons Pragma.Warp, (Suite.report_of row (H.Cons Pragma.Warp)).M.cycles)
      cons
    |> fst
  in
  let winners s = List.map (fun row -> (row.Suite.app, best row)) s in
  let base = winners (List.assoc "k20c" suites) in
  List.iter
    (fun (preset, s) ->
      let deep =
        List.exists
          (fun row ->
            List.exists
              (fun (_, r) ->
                r.M.bank_conflict_replays <> 0 || r.M.mshr_stalls <> 0)
              row.Suite.results)
          s
      in
      if preset = "k20c" && deep then
        failwith "ablation A7: flat k20c accrued deep-model counters"
      else if preset <> "k20c" && not deep then
        failwith
          (Printf.sprintf
             "ablation A7: deep preset %s never engaged the new accounting"
             preset))
    suites;
  let crossovers =
    List.concat_map
      (fun (preset, s) ->
        if preset = "k20c" then []
        else
          List.filter_map
            (fun (app, w) ->
              let w0 = List.assoc app base in
              if w0 <> w then
                Some
                  (Printf.sprintf "  crossover: %-6s %-22s k20c=%s -> %s" app
                     preset (H.variant_to_string w0) (H.variant_to_string w))
              else None)
            (winners s))
      suites
  in
  if crossovers = [] then
    failwith
      "ablation A7: no granularity crossover shifted under the deep presets";
  let t =
    Table.create ~title:"Memory-model sweep: fastest consolidation granularity"
      ~headers:("benchmark" :: presets)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) presets)
      ()
  in
  List.iter
    (fun (app, _) ->
      Table.add_row t
        (app
        :: List.map
             (fun (_, s) ->
               let row = List.find (fun r -> r.Suite.app = app) s in
               H.variant_to_string (best row))
             suites))
    base;
  (t, crossovers)

let print session =
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    (tables session);
  let t, crossovers = granularity_by_preset session in
  Table.print t;
  List.iter print_endline crossovers;
  print_newline ()
