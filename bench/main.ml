(* Benchmark harness.

   Two halves:

   1. Bechamel microbenchmarks — one Test.make per paper table/figure,
      each regenerating that experiment end-to-end (directive parsing,
      consolidation transform, functional SIMT simulation and timing
      replay) at a reduced problem size.  These measure the toolchain's
      wall-clock cost; the *simulated* results the paper reports come from
      `bin/experiments.exe`.

   2. Ablation tables (DESIGN.md section 5) — printed directly, since
      their interesting output is simulated device cycles, not wall time:
        A1  device-launch-latency sensitivity (basic-dp vs grid-level)
        A2  SMX scheduler: processor sharing vs FCFS
        A3  pending-pool capacity (the cudaDeviceSetLimit analogue)
        A4  perBufferSize sizing vs overflow fallbacks
        A5  basic-dp slowdown growth with problem scale

   3. The pool-scheduler sweep (--sched-sweep, also part of the default
      run): shared-counter vs work-stealing dispatch on uniform and
      skewed 1000-scenario sweeps, wall-clocked across a jobs axis with
      delay-calibrated task bodies, written to BENCH_pr6.json.

   4. The compiled-kernel cache sweep (--cache-sweep, also part of the
      default run): one scenario sweep executed through a caching and a
      cacheless Dpc_engine session, wall-clocked, written to
      BENCH_pr5.json.

   App runs go through Dpc_engine scenarios: the ablation sweeps share
   one caching session; the bechamel rows use a cacheless session so
   each iteration measures the full parse/transform/simulate pipeline.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit
module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Cfg = Dpc_gpu.Config
module Table = Dpc_util.Table
module Pragma = Dpc_kir.Pragma
module V = Dpc_kir.Value
module Mem = Dpc_gpu.Memory
module Device = Dpc_sim.Device
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Json = Dpc_prof.Json

let grid = H.Cons Pragma.Grid
let warp = H.Cons Pragma.Warp

(* --- 1. bechamel microbenchmarks (one per table/figure) ------------------- *)

(* Cacheless on purpose: every iteration re-runs the whole toolchain,
   which is what these rows measure. *)
let bench_session = Session.create ~cache:false ()

let srun sc = ignore (Session.run bench_session sc)

let bechamel_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  let sc = Scenario.make in
  [
    (* Table I: directive parsing. *)
    t "tableI/pragma-parse" (fun () ->
        ignore
          (Dpc_minicu.Pragma_parser.parse
             "dp consldt(block) buffer(custom, perBufferSize: 256, \
              totalSize: 1048576) work(curr, next) threads(128)"));
    (* Fig 4: the source-to-source transform itself. *)
    t "fig4/parse+transform" (fun () ->
        let prog =
          Dpc_minicu.Parser.parse_program
            (Dpc_apps.Sssp.dp_source Pragma.Block)
        in
        ignore (Dpc.Transform.apply ~cfg:Cfg.k20c ~parent:"sssp_parent" prog));
    (* Fig 5: one SSSP consolidated run per allocator extreme. *)
    t "fig5/sssp-warp-default" (fun () ->
        srun (sc ~app:"SSSP" ~alloc:Dpc_alloc.Allocator.Default ~scale:800 warp));
    t "fig5/sssp-warp-prealloc" (fun () ->
        srun (sc ~app:"SSSP" ~alloc:Dpc_alloc.Allocator.Pool ~scale:800 warp));
    (* Fig 6: policy points on TD. *)
    t "fig6/td-grid-KC1" (fun () ->
        srun (sc ~app:"TD" ~scale:16 ~policy:(Dpc.Config_select.Kc 1) grid));
    t "fig6/td-grid-1to1" (fun () ->
        srun (sc ~app:"TD" ~scale:16 ~policy:Dpc.Config_select.One_to_one grid));
    (* Figs 7-10: each benchmark app end to end. *)
    t "fig7/sssp-basic" (fun () -> srun (sc ~app:"SSSP" ~scale:800 H.Basic));
    t "fig7/sssp-grid" (fun () -> srun (sc ~app:"SSSP" ~scale:800 grid));
    t "fig7/spmv-grid" (fun () -> srun (sc ~app:"SpMV" ~scale:1500 grid));
    t "fig7/pagerank-grid" (fun () ->
        srun (sc ~app:"PageRank" ~scale:800 grid));
    t "fig7/gc-grid" (fun () -> srun (sc ~app:"GC" ~scale:9 grid));
    t "fig7/bfs-rec-grid" (fun () -> srun (sc ~app:"BFS-Rec" ~scale:9 grid));
    t "fig7/th-grid" (fun () -> srun (sc ~app:"TH" ~scale:16 grid));
    t "fig7/td-grid" (fun () -> srun (sc ~app:"TD" ~scale:16 grid));
    (* Interpreter back ends head to head: identical simulations through
       the bytecode tier and the reference AST walker.  The back end is
       part of the scenario, not ambient state. *)
    t "interp/sssp-basic-bytecode" (fun () ->
        srun
          (sc ~app:"SSSP" ~interp:Dpc_sim.Interp.Bytecode ~scale:800 H.Basic));
    t "interp/sssp-basic-walker" (fun () ->
        srun
          (sc ~app:"SSSP" ~interp:Dpc_sim.Interp.Reference ~scale:800 H.Basic));
    t "interp/td-grid-bytecode" (fun () ->
        srun (sc ~app:"TD" ~interp:Dpc_sim.Interp.Bytecode ~scale:16 grid));
    t "interp/td-grid-walker" (fun () ->
        srun (sc ~app:"TD" ~interp:Dpc_sim.Interp.Reference ~scale:16 grid));
  ]

let run_bechamel ?(quota = 0.4) () =
  print_endline "=== bechamel microbenchmarks (ns per run, OLS estimate) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"dpc" bechamel_tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    rows;
  print_newline ()

(* --- 2. ablation tables ---------------------------------------------------- *)

(* The ablation sweeps are rows of fully independent simulations,
   expressed as scenario lists and fanned out over the shared session's
   pool; [run_all] preserves submission order, so the printed tables
   match the serial run byte for byte.  Device knobs (launch latency,
   pool capacity, scheduler) are part of the scenario, not hand-threaded
   config records. *)
module Pool = Dpc_util.Pool

let reports session scs =
  List.map Session.report (Session.run_all session scs)

(* A1: how sensitive is each variant to the device-side launch latency?
   basic-dp should track it linearly; grid-level should barely notice. *)
let ablation_launch_latency session =
  let t =
    Table.create
      ~title:
        "Ablation A1: device-launch-latency sweep, SSSP cycles (basic-dp vs \
         grid-level)"
      ~headers:[ "latency (cycles)"; "basic-dp"; "grid-level"; "ratio" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  let lats = [ 1_000; 5_000; 20_000 ] in
  let rs =
    reports session
      (List.concat_map
         (fun lat ->
           let cfg_overrides = [ ("device_launch_latency", lat) ] in
           [ Scenario.make ~app:"SSSP" ~cfg_overrides ~scale:1500 H.Basic;
             Scenario.make ~app:"SSSP" ~cfg_overrides ~scale:1500 grid ])
         lats)
  in
  let rec rows lats rs =
    match (lats, rs) with
    | [], [] -> ()
    | lat :: lats, (b : M.report) :: g :: rs ->
      Table.add_row t
        [ string_of_int lat;
          Printf.sprintf "%.0f" b.M.cycles;
          Printf.sprintf "%.0f" g.M.cycles;
          Table.fmt_ratio (b.M.cycles /. g.M.cycles) ];
      rows lats rs
    | _ -> assert false
  in
  rows lats rs;
  Table.print t

(* A2: processor-sharing vs FCFS SMX scheduling — the scheduler is a
   scenario field, so this is four declarative runs. *)
let ablation_scheduler session =
  let t =
    Table.create
      ~title:"Ablation A2: SMX scheduler model, SSSP cycles"
      ~headers:[ "variant"; "processor sharing"; "fcfs (no contention)" ]
      ~aligns:Table.[ Left; Right; Right ] ()
  in
  let cells =
    List.map
      (fun (r : M.report) -> Printf.sprintf "%.0f" r.M.cycles)
      (reports session
         (List.concat_map
            (fun v ->
              List.map
                (fun scheduler ->
                  Scenario.make ~app:"SSSP" ~scale:1500 ~scheduler v)
                [ Dpc_sim.Timing.Processor_sharing; Dpc_sim.Timing.Fcfs ])
            [ H.Basic; grid ]))
  in
  (match cells with
  | [ b_ps; b_fcfs; g_ps; g_fcfs ] ->
    Table.add_row t [ "basic-dp"; b_ps; b_fcfs ];
    Table.add_row t [ "grid-level"; g_ps; g_fcfs ]
  | _ -> assert false);
  Table.print t

(* A3: pending-pool capacity sweep — the cudaDeviceSetLimit analogue the
   paper mentions in Section III.B. *)
let ablation_pool_capacity session =
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
    (fun cap (r : M.report) ->
      Table.add_row t
        [ string_of_int cap;
          Printf.sprintf "%.0f" r.M.cycles;
          string_of_int r.M.virtualized_launches;
          string_of_int r.M.max_pending ])
    caps
    (reports session
       (List.map
          (fun cap ->
            Scenario.make ~app:"SSSP"
              ~cfg_overrides:[ ("fixed_pool_capacity", cap) ]
              ~scale:3000 H.Basic)
          caps));
  Table.print t

(* A4: consolidation-buffer sizing.  Small explicit perBufferSize values
   overflow and fall back to direct launches; the report counts both the
   fallback launches and the cycles they cost. *)
let ablation_buffer_sizing pool =
  let t =
    Table.create
      ~title:
        "Ablation A4: perBufferSize vs overflow fallback (ragged workload, \
         block-level)"
      ~headers:[ "perBufferSize (items)"; "cycles"; "device launches" ]
      ~aligns:Table.[ Left; Right; Right ] ()
  in
  let source cap =
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
      #pragma dp consldt(block) buffer(custom, perBufferSize: %d) work(node)
      launch child<<<1, 64>>>(row_ptr, data, node);
    } else {
      for (var j = row_ptr[node]; j < row_ptr[node + 1]; j = j + 1) {
        data[j] = data[j] * 2;
      }
    }
  }
}
|}
      cap
  in
  let n = 3000 in
  Pool.parallel_map pool
    (fun cap ->
      (* Each task builds its own graph and device: nothing simulated is
         shared across domains. *)
      let g = Dpc_graph.Gen.citeseer_like ~n ~seed:5 in
      let prog = Dpc_minicu.Parser.parse_program (source cap) in
      let r = Dpc.Transform.apply ~cfg:Cfg.k20c ~parent:"parent" prog in
      let dev = Device.create ~cfg:Cfg.k20c r.Dpc.Transform.program in
      let rp = Device.of_int_array dev ~name:"rp" g.Dpc_graph.Csr.row_ptr in
      let data =
        Device.of_int_array dev ~name:"data"
          (Array.init (Dpc_graph.Csr.nnz g) (fun i -> i))
      in
      Device.launch dev r.Dpc.Transform.entry ~grid:((n + 127) / 128)
        ~block:128
        [ V.Vbuf rp.Mem.id; V.Vbuf data.Mem.id; V.Vint n; V.Vint 8 ];
      let rep = Device.report dev in
      [ string_of_int cap;
        Printf.sprintf "%.0f" rep.M.cycles;
        string_of_int rep.M.device_launches ])
    [ 4; 32; 512 ]
  |> List.iter (Table.add_row t);
  Table.print t

(* A5: the basic-dp slowdown grows with problem scale (why the paper's
   full-size runs show 2-3 orders of magnitude).  All eight runs share
   one program build through the session cache: only scale varies. *)
let ablation_scale_growth session =
  let t =
    Table.create
      ~title:"Ablation A5: basic-dp slowdown vs no-dp as SSSP scale grows"
      ~headers:[ "nodes"; "basic-dp cycles"; "no-dp cycles"; "slowdown" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  let scales = [ 1000; 2000; 4000; 8000 ] in
  let rs =
    reports session
      (List.concat_map
         (fun n ->
           [ Scenario.make ~app:"SSSP" ~scale:n H.Basic;
             Scenario.make ~app:"SSSP" ~scale:n H.Flat ])
         scales)
  in
  let rec rows scales rs =
    match (scales, rs) with
    | [], [] -> ()
    | n :: scales, (b : M.report) :: f :: rs ->
      Table.add_row t
        [ string_of_int n;
          Printf.sprintf "%.0f" b.M.cycles;
          Printf.sprintf "%.0f" f.M.cycles;
          Table.fmt_ratio (b.M.cycles /. f.M.cycles) ];
      rows scales rs
    | _ -> assert false
  in
  rows scales rs;
  Table.print t

(* A6: the Free Launch (MICRO'15) thread-reuse baseline vs consolidation
   on the ragged workload — the related-work comparison of Section VI. *)
let ablation_free_launch () =
  let t =
    Table.create
      ~title:
        "Ablation A6: Free Launch (thread reuse) vs workload consolidation          (ragged workload)"
      ~headers:[ "variant"; "cycles"; "device launches"; "warp efficiency" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  let n = 3000 in
  let g = Dpc_graph.Gen.citeseer_like ~n ~seed:5 in
  let source gran =
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
      #pragma dp consldt(%s) work(node)
      launch child<<<1, 64>>>(row_ptr, data, node);
    } else {
      for (var j = row_ptr[node]; j < row_ptr[node + 1]; j = j + 1) {
        data[j] = data[j] * 2;
      }
    }
  }
}
|}
      gran
  in
  let run label program entry =
    let dev = Device.create ~cfg:Cfg.k20c program in
    let rp = Device.of_int_array dev ~name:"rp" g.Dpc_graph.Csr.row_ptr in
    let data =
      Device.of_int_array dev ~name:"data"
        (Array.init (Dpc_graph.Csr.nnz g) (fun i -> i))
    in
    Device.launch dev entry ~grid:((n + 127) / 128) ~block:128
      [ V.Vbuf rp.Mem.id; V.Vbuf data.Mem.id; V.Vint n; V.Vint 8 ];
    let r = Device.report dev in
    Table.add_row t
      [ label;
        Printf.sprintf "%.0f" r.M.cycles;
        string_of_int r.M.device_launches;
        Table.fmt_pct r.M.warp_efficiency ]
  in
  let prog () = Dpc_minicu.Parser.parse_program (source "grid") in
  run "basic-dp" (prog ()) "parent";
  let fl = Dpc.Free_launch.apply ~parent:"parent" (prog ()) in
  run "free launch (thread reuse)" fl.Dpc.Free_launch.program
    fl.Dpc.Free_launch.entry;
  let cons = Dpc.Transform.apply ~cfg:Cfg.k20c ~parent:"parent" (prog ()) in
  run "grid-level consolidation" cons.Dpc.Transform.program
    cons.Dpc.Transform.entry;
  Table.print t

(* --- 3. the pool-scheduler sweep (BENCH_pr6.json) ------------------------- *)

(* Shared-counter vs work-stealing dispatch on 1000-scenario sweeps.

   What this measures: the *scheduler*, not the simulator.  Each task's
   body is a calibrated delay — Unix.sleepf of its scenario's
   Scenario.cost_estimate, scaled to SCHED_UNIT seconds per cost unit —
   so task durations are controlled, wall clocks are real, and the
   comparison isolates dispatch order and load balance.  (Delays also
   overlap across domains on a single-core host, where CPU-bound bodies
   would serialize and hide any scheduling difference; the committed
   JSON records the host's core count.)  To keep the idealization
   honest, each task's *actual* delay gets a deterministic ±20% jitter
   the scheduler never sees: stealing must win on estimates, not on
   oracle knowledge.

   Two sweep shapes, both 1000 scenarios:
   - uniform: identical cost everywhere — any work-conserving scheduler
     is optimal, so steal must only show its overhead is negligible;
   - skewed: a handful of expensive runs listed *last* (the natural
     "ascending scale" sweep order).  Shared dispatch claims in
     submission order, so the big runs start after every small one and
     the last-claimed big run straggles alone; stealing's longest-first
     seed starts them immediately and idle workers steal the queued
     small tasks behind them. *)

let sched_unit = 0.0008 (* seconds of delay per unit of relative cost *)

let sched_uniform_sweep =
  List.init 1000 (fun i ->
      Scenario.make ~app:"SSSP" ~scale:1000 ~seed:(i + 1) grid)

let sched_skewed_sweep =
  (* 995 small runs, then 5 at 200x the scale — ascending scale order,
     exactly how a parameter sweep is usually written. *)
  List.init 995 (fun i ->
      Scenario.make ~app:"SSSP" ~scale:1000 ~seed:(i + 1) grid)
  @ List.init 5 (fun i ->
        Scenario.make ~app:"SSSP" ~scale:200_000 ~seed:(i + 1) grid)

(* Relative-cost units, normalized so the cheapest task costs 1. *)
let sched_costs scs =
  let raw = List.map Scenario.cost_estimate scs in
  let lo = List.fold_left Float.min infinity raw in
  List.map (fun c -> c /. lo) raw

(* Measure both schedulers on one sweep shape, interleaving the reps so
   slow host drift — this is a wall-clock bench on a shared machine —
   hits both equally, and taking the best rep of each.  The pair order
   flips every rep: a run that starts right after another one pays a
   measurable tail (teardown of the previous rep's domains overlapping
   its start), so a fixed order would bill that tail to one scheduler
   only.  A short settle between runs drains most of it.  Returns
   (shared_best, steal_best, steals). *)
let sched_walls ~jobs scs =
  let costs = Array.of_list (sched_costs scs) in
  let task i =
    (* ±20% deterministic jitter on the executed delay only: the
       scheduler orders by the unjittered estimate.  The hash must
       avalanche: a plain linear congruence makes every stride-w task
       subsequence an arithmetic progression mod 256, so the statically
       dealt workers' cumulative delays stay phase-locked and their
       wakeups contend for the CPU at the same instants all run long. *)
    let h = i * 0x9E3779B1 in
    let h = h lxor (h lsr 13) in
    let h = h * 0x85EBCA6B in
    let h = (h lxor (h lsr 16)) land 0xff in
    let jitter = 0.8 +. (0.4 *. float_of_int h /. 255.) in
    Unix.sleepf (costs.(i) *. sched_unit *. jitter)
  in
  let idx = List.init (Array.length costs) Fun.id in
  let shared_pool = Pool.create ~sched:Pool.Shared ~jobs () in
  let steal_pool = Pool.create ~sched:Pool.Steal ~jobs () in
  let time pool =
    let t0 = Unix.gettimeofday () in
    Pool.parallel_iter ~cost:(fun i -> costs.(i)) pool task idx;
    Unix.gettimeofday () -. t0
  in
  let reps = 10 in
  let shared_best = ref infinity and steal_best = ref infinity in
  let steals = ref 0 in
  let settle () = Unix.sleepf 0.005 in
  for r = 1 to reps do
    let measure_shared () =
      settle ();
      shared_best := Float.min !shared_best (time shared_pool)
    and measure_steal () =
      settle ();
      steal_best := Float.min !steal_best (time steal_pool);
      steals := Pool.last_steals steal_pool
    in
    if r land 1 = 0 then begin
      measure_shared ();
      measure_steal ()
    end
    else begin
      measure_steal ();
      measure_shared ()
    end
  done;
  (!shared_best, !steal_best, !steals)

(* Stealing must never change results: one real mixed-app sweep through
   a shared-dispatch session and a stealing session, metrics compared
   byte for byte. *)
let sched_identity_check () =
  let scs =
    List.concat_map
      (fun seed ->
        [ Scenario.make ~app:"SSSP" ~scale:400 ~seed grid;
          Scenario.make ~app:"SpMV" ~scale:300 ~seed (H.Cons Pragma.Block);
          Scenario.make ~app:"GC" ~scale:6 ~seed warp ])
      [ 1; 2; 3; 4 ]
  in
  let metrics sched jobs =
    let s = Session.create ~jobs ~sched () in
    let rs =
      List.map
        (fun o -> Json.to_string (M.to_json (Session.report o)))
        (Session.run_all s scs)
    in
    (rs, Session.last_steals s)
  in
  let shared, _ = metrics Pool.Shared 2 in
  let steal, steals = metrics Pool.Steal 4 in
  if shared <> steal then
    failwith "sched sweep: stealing changed the metrics";
  (List.length scs, steals)

let bench_sched_sweep ~out () =
  let jobs_axis = [ 1; 2; 4; 8 ] in
  let run_curve name scs =
    Printf.printf "=== pool scheduler sweep: %s (%d scenarios) ===\n" name
      (List.length scs);
    let rows =
      List.map
        (fun jobs ->
          let shared_s, steal_s, steals = sched_walls ~jobs scs in
          Printf.printf
            "  jobs %2d   shared %7.3f s   steal %7.3f s   speedup %.2fx   \
             (%d steals)\n\
             %!"
            jobs shared_s steal_s (shared_s /. steal_s) steals;
          Json.Obj
            [
              ("jobs", Json.Int jobs);
              ("shared_wall_s", Json.Float shared_s);
              ("steal_wall_s", Json.Float steal_s);
              ("speedup", Json.Float (shared_s /. steal_s));
              ("steals", Json.Int steals);
            ])
        jobs_axis
    in
    print_newline ();
    rows
  in
  let uniform = run_curve "uniform" sched_uniform_sweep in
  let skewed = run_curve "skewed" sched_skewed_sweep in
  let identity_runs, identity_steals = sched_identity_check () in
  Printf.printf
    "  identity: %d-run mixed sweep byte-identical shared vs steal (%d \
     steals)\n\n"
    identity_runs identity_steals;
  let j =
    Json.Obj
      [
        ("schema", Json.String "dpc-sched-bench-v1");
        ("source", Json.String "bench/main.exe --sched-sweep");
        ( "method",
          Json.String
            "task body = Unix.sleepf(cost_estimate * unit * jitter); \
             scheduler sees the unjittered estimate; wall = best of 10 order-alternated \
             interleaved shared/steal reps; delays overlap across \
             domains, so the curve measures dispatch order and load \
             balance, not simulator throughput" );
        ("unit_s_per_cost", Json.Float sched_unit);
        ("jitter", Json.String "deterministic, +/-20% of each task delay");
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ( "sweeps",
          Json.Obj
            [
              ( "uniform",
                Json.Obj
                  [
                    ( "scenarios",
                      Json.Int (List.length sched_uniform_sweep) );
                    ( "shape",
                      Json.String "1000 x SSSP/grid-level scale=1000" );
                    ("curve", Json.List uniform);
                  ] );
              ( "skewed",
                Json.Obj
                  [
                    ("scenarios", Json.Int (List.length sched_skewed_sweep));
                    ( "shape",
                      Json.String
                        "995 x SSSP/grid-level scale=1000 + 5 x \
                         scale=200000, ascending scale order" );
                    ("curve", Json.List skewed);
                  ] );
            ] );
        ( "identity",
          Json.Obj
            [
              ("runs", Json.Int identity_runs);
              ("steals", Json.Int identity_steals);
              ("identical_metrics", Json.Bool true);
            ] );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty j));
  Printf.printf "bench: scheduler sweep -> %s\n" out

(* --- 4. the compiled-kernel cache sweep (BENCH_pr5.json) ------------------ *)

(* A sweep in the engine's sweet spot: many short runs of few distinct
   (program x device-config x policy) families, differing only in scale
   and seed — the shape of a parameter search like fig6's exhaustive
   sweep.  A caching session builds each family's program once (and
   lowers each kernel to bytecode once per domain); the cacheless
   session re-runs the parse/transform/finalize/compile pipeline for
   every run — the pre-engine behaviour.  Long simulations amortize
   their one-off build to noise; short ones pay it on every run, which
   is exactly what this benchmark exposes. *)
let cache_sweep_scenarios =
  let seeds = List.init 15 (fun i -> i + 1) in
  List.concat_map
    (fun scale ->
      List.map (fun seed -> Scenario.make ~app:"GC" ~scale ~seed grid) seeds)
    [ 2; 3 ]
  @ List.concat_map
      (fun scale ->
        List.map
          (fun seed ->
            Scenario.make ~app:"SpMV" ~scale ~seed (H.Cons Pragma.Block))
          seeds)
      [ 20; 30 ]
  @ List.map
      (fun seed -> Scenario.make ~app:"SpMV" ~scale:20 ~seed warp)
      seeds

let bench_cache_sweep ~out () =
  let scs = cache_sweep_scenarios in
  let reps = 5 in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Serial sessions on both sides: the comparison isolates cache reuse,
     not domain parallelism.  Best-of-[reps] damps scheduler noise. *)
  let exec ~cache =
    let best = ref infinity and cycles = ref [] and stats = ref None in
    for _ = 1 to reps do
      let s = Session.create ~jobs:1 ~cache () in
      let outs, dt = wall (fun () -> Session.run_all s scs) in
      cycles :=
        List.map (fun o -> (Session.report o).M.cycles) outs;
      stats := Some (Session.cache_stats s);
      if dt < !best then best := dt
    done;
    (!best, !cycles, Option.get !stats)
  in
  let uncached_s, uncached_cycles, _ = exec ~cache:false in
  let cached_s, cached_cycles, stats = exec ~cache:true in
  if uncached_cycles <> cached_cycles then
    failwith "cache sweep: cached metrics diverged from uncached metrics";
  let speedup = uncached_s /. cached_s in
  Printf.printf
    "=== compiled-kernel cache sweep (%d runs, best of %d) ===\n\
    \  uncached %.3f s   cached %.3f s   speedup %.2fx   (%d hits, %d \
     misses; metrics byte-identical)\n\n"
    (List.length scs) reps uncached_s cached_s speedup
    stats.Dpc_engine.Kcache.hits stats.Dpc_engine.Kcache.misses;
  let j =
    Json.Obj
      [
        ("schema", Json.String "dpc-cache-bench-v1");
        ("source", Json.String "bench/main.exe");
        ("runs", Json.Int (List.length scs));
        ("reps", Json.Int reps);
        ( "sweep",
          Json.List
            (List.map (fun sc -> Json.String (Scenario.key sc)) scs) );
        ("uncached_wall_s", Json.Float uncached_s);
        ("cached_wall_s", Json.Float cached_s);
        ("speedup", Json.Float speedup);
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Int stats.Dpc_engine.Kcache.hits);
              ("misses", Json.Int stats.Dpc_engine.Kcache.misses);
            ] );
        ("identical_metrics", Json.Bool true);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty j));
  Printf.printf "bench: cache sweep -> %s\n" out

(* --- 5. the serve-daemon sweep (BENCH_pr7.json) ---------------------------- *)

(* Two consolidation effects of the serve path:

   (a) one warm daemon vs N independent CLI invocations.  The baseline
       forks and execs the real `experiments` binary once per request —
       what a script loop costs: a process start, a runtime init and
       every program build, per request.  Against it, N sequential
       in-process clients of one dpcd instance over the Unix socket: the
       first client fills the cache, every later one rides it.  Client
       walls include the full socket round trip, so the speedup is
       end-to-end, not cache-counter arithmetic.

   (b) cold-process warm start from the on-disk store: a fresh session
       with a populated --cache-dir loads prepared programs instead of
       building them — the cold-start path of both dpcd and
       `experiments --cache-dir`.  Program preparation in this simulator
       is sub-millisecond per family, so the wall-clock effect is
       deliberately measured on the widest build surface there is (every
       app x variant family at minimal problem scale) and stays modest;
       the store's value is that the warm start is byte-identical, not
       that builds were expensive to begin with.

   Both sides of both comparisons must produce byte-identical outcome
   records; the bench fails loudly if they do not. *)

module Serve_server = Dpc_serve.Server
module Serve_client = Dpc_serve.Client

let mk_temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let outcome_strings outs =
  List.map
    (fun o -> Json.to_string (Dpc_experiments.Export.outcome_json o))
    outs

(* The per-request workload of comparison (a): the small interactive
   request shape dpcd exists for — a handful of short runs where a CLI
   invocation's process start and builds rival the simulations. *)
let serve_request_scenarios =
  [
    Scenario.make ~app:"SpMV" ~scale:20 (H.Cons Pragma.Block);
    Scenario.make ~app:"SpMV" ~scale:20 warp;
    Scenario.make ~app:"GC" ~scale:2 grid;
  ]

(* The widest build surface for comparison (b): one scenario per
   (app x variant) program family, at each app's minimal sensible
   scale so preparation is as large a fraction of the wall as this
   simulator allows. *)
let serve_family_sweep =
  let min_scale = function
    | "GC" | "BFS-Rec" -> 2
    | "TH" | "TD" -> 64
    | _ -> 50
  in
  List.concat_map
    (fun (e : Dpc_apps.Registry.entry) ->
      let app = e.Dpc_apps.Registry.name in
      List.map
        (fun v -> Scenario.make ~app ~scale:(min_scale app) v)
        [ H.Basic; grid; H.Cons Pragma.Block; warp ])
    Dpc_apps.Registry.all

(* Fork+exec one real CLI invocation, stdout/stderr to /dev/null. *)
let run_process argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin devnull devnull
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("serve sweep: CLI invocation failed: " ^ argv.(0))

let sweep_records_of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.member "runs" (Json.parse text) with
  | Some (Json.List rs) -> List.map Json.to_string rs
  | _ -> failwith ("serve sweep: no runs in " ^ path)

let bench_serve_sweep ~out () =
  let req = serve_request_scenarios in
  let n_clients = 6 in
  let expect =
    outcome_strings (Session.run_all (Session.create ~jobs:1 ()) req)
  in
  let dir = mk_temp_dir "dpc-serve-bench" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* (a) N independent CLI invocations of the request... *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "experiments.exe"))
  in
  if not (Sys.file_exists exe) then
    failwith ("serve sweep: experiments binary not found at " ^ exe);
  let sweep_file = Filename.concat dir "request.json" in
  let oc = open_out sweep_file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ( "scenarios",
                  Json.List
                    (List.map (fun sc -> Json.String (Scenario.key sc)) req)
                );
              ])));
  let cli_walls =
    List.init n_clients (fun i ->
        let out_json = Filename.concat dir (Printf.sprintf "cli%d.json" i) in
        let (), dt =
          wall (fun () ->
              run_process
                [| exe; "--sweep"; sweep_file; "--json"; out_json; "-q" |])
        in
        if sweep_records_of_file out_json <> expect then
          failwith "serve sweep: CLI metrics diverged";
        dt)
  in
  (* ... vs N sequential in-process clients of one warm daemon. *)
  let sock = Filename.concat dir "d.sock" in
  let server = Serve_server.create (Serve_server.config sock) in
  let dom = Domain.spawn (fun () -> Serve_server.run server) in
  let client_walls, server_stats =
    Fun.protect
      ~finally:(fun () ->
        Serve_server.request_stop server;
        Domain.join dom)
      (fun () ->
        let walls =
          List.init n_clients (fun _ ->
              let records, dt =
                wall (fun () ->
                    Serve_client.with_connection sock (fun c ->
                        match Serve_client.sweep c req with
                        | Error e -> failwith ("serve sweep: " ^ e)
                        | Ok r ->
                          List.map Json.to_string r.Serve_client.outcomes))
              in
              if records <> expect then
                failwith "serve sweep: served metrics diverged";
              dt)
        in
        let stats =
          Serve_client.with_connection sock (fun c ->
              match Serve_client.stats c with
              | Ok j -> j
              | Error e -> failwith ("serve sweep: stats: " ^ e))
        in
        (walls, stats))
  in
  let first_client = List.hd client_walls in
  let warm_clients = List.tl client_walls in
  let cli_mean = mean cli_walls and warm_mean = mean warm_clients in
  let warm_speedup = cli_mean /. warm_mean in
  Printf.printf
    "=== serve sweep: %d-scenario request x %d clients ===\n\
    \  CLI invocation %.4f s (mean of %d)   first client %.4f s   warm \
     client %.4f s (mean of %d)   speedup %.2fx\n"
    (List.length req) n_clients cli_mean n_clients first_client warm_mean
    (List.length warm_clients) warm_speedup;
  (* (b) cold-process warm start from a populated on-disk store, over
     every program family. *)
  let fam = serve_family_sweep in
  let fam_expect =
    outcome_strings (Session.run_all (Session.create ~jobs:1 ()) fam)
  in
  let store = Filename.concat dir "cache" in
  ignore (Session.run_all (Session.create ~jobs:1 ~persist:store ()) fam);
  let reps = 5 in
  let best mk =
    let b = ref infinity in
    for _ = 1 to reps do
      let outs, dt = wall (fun () -> Session.run_all (mk ()) fam) in
      if outcome_strings outs <> fam_expect then
        failwith "serve sweep: warm-start metrics diverged";
      if dt < !b then b := dt
    done;
    !b
  in
  let cold_start = best (fun () -> Session.create ~jobs:1 ()) in
  let warm_start = best (fun () -> Session.create ~jobs:1 ~persist:store ()) in
  let disk_speedup = cold_start /. warm_start in
  Printf.printf
    "  disk warm start over %d families: cold %.4f s   warm %.4f s   \
     speedup %.2fx (best of %d; metrics byte-identical)\n\n"
    (List.length fam) cold_start warm_start disk_speedup reps;
  let j =
    Json.Obj
      [
        ("schema", Json.String "dpc-serve-bench-v1");
        ("source", Json.String "bench/main.exe --serve-sweep");
        ( "method",
          Json.String
            "(a) wall of N fork+exec'd `experiments --sweep` invocations \
             (process start + runtime init + builds, per request) vs N \
             sequential in-process dpcd clients over one Unix socket, warm \
             mean excluding the first (cache-filling) client; (b) \
             fresh-session wall over every app x variant family at minimal \
             scale, cold vs with a populated --cache-dir store, best of \
             reps.  Program preparation is sub-millisecond per family in \
             this simulator, so (b) stays modest by construction.  All \
             record streams byte-identical." );
        ( "request",
          Json.Obj
            [
              ("scenarios", Json.Int (List.length req));
              ("clients", Json.Int n_clients);
              ( "cli_wall_s",
                Json.List (List.map (fun s -> Json.Float s) cli_walls) );
              ( "client_wall_s",
                Json.List (List.map (fun s -> Json.Float s) client_walls) );
              ("cli_mean_s", Json.Float cli_mean);
              ("first_client_s", Json.Float first_client);
              ("warm_client_mean_s", Json.Float warm_mean);
              ("warm_speedup", Json.Float warm_speedup);
              ("server_stats", server_stats);
            ] );
        ( "disk_cache",
          Json.Obj
            [
              ("families", Json.Int (List.length fam));
              ("reps", Json.Int reps);
              ("cold_start_wall_s", Json.Float cold_start);
              ("warm_start_wall_s", Json.Float warm_start);
              ("warm_start_speedup", Json.Float disk_speedup);
            ] );
        ("identical_metrics", Json.Bool true);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty j));
  Printf.printf "bench: serve sweep -> %s\n" out

(* --- 6. the memory-model sweep (BENCH_pr10.json) ---------------------------- *)

(* The evaluation suite behind figs 7-10 re-collected under each device
   preset.  [k20c] is the paper's flat memory model; the deep presets
   additionally charge shared-memory bank-conflict replays and MSHR
   occupancy stalls and issue up to two instructions per warp per cycle,
   which reprices the consolidation granularities differently per app —
   so the best granularity can shift.  The sweep records every
   (preset, app, variant) report, each app's fastest consolidated
   variant under each preset, and the winner shifts relative to [k20c]
   (the "crossovers").  The deep presets must actually engage the new
   accounting (nonzero replay/stall totals) and [k20c] must not (both
   totals exactly zero) or the bench fails loudly. *)
module Suite = Dpc_experiments.Suite

let memmodel_presets = [ "k20c"; "k20c-deep"; "milo832" ]

let bench_memmodel_sweep ~out () =
  let cons = [ H.Cons Pragma.Warp; H.Cons Pragma.Block; grid ] in
  let suites =
    List.map
      (fun preset ->
        ( preset,
          Suite.collect ~verbose:false ~cfg:preset
            ~jobs:(Pool.default_jobs ()) () ))
      memmodel_presets
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
  let totals s =
    List.fold_left
      (fun (br, ms) row ->
        List.fold_left
          (fun (br, ms) (_, r) ->
            (br + r.M.bank_conflict_replays, ms + r.M.mshr_stalls))
          (br, ms) row.Suite.results)
      (0, 0) s
  in
  let base = winners (List.assoc "k20c" suites) in
  let crossovers =
    List.concat_map
      (fun (preset, s) ->
        if preset = "k20c" then []
        else
          List.filter_map
            (fun (app, w) ->
              let w0 = List.assoc app base in
              if w0 <> w then Some (preset, app, w0, w) else None)
            (winners s))
      suites
  in
  List.iter
    (fun (preset, s) ->
      let br, ms = totals s in
      if preset = "k20c" then begin
        if br <> 0 || ms <> 0 then
          failwith "memmodel sweep: flat k20c accrued deep-model counters"
      end
      else if br = 0 && ms = 0 then
        failwith
          (Printf.sprintf
             "memmodel sweep: deep preset %s never engaged the new accounting"
             preset))
    suites;
  if crossovers = [] then
    failwith "memmodel sweep: no granularity crossover shifted under the deep presets";
  let t =
    Table.create ~title:"Memory-model sweep: fastest consolidation granularity"
      ~headers:("benchmark" :: memmodel_presets)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) memmodel_presets)
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
  Table.print t;
  List.iter
    (fun (preset, app, w0, w) ->
      Printf.printf "  crossover: %-6s %-22s k20c=%s -> %s\n" app preset
        (H.variant_to_string w0) (H.variant_to_string w))
    crossovers;
  print_newline ();
  let report_json (r : M.report) =
    Json.Obj
      [
        ("cycles", Json.Float r.M.cycles);
        ("dram_transactions", Json.Int r.M.dram_transactions);
        ("l2_hits", Json.Int r.M.l2_hits);
        ("bank_conflict_replays", Json.Int r.M.bank_conflict_replays);
        ("mshr_stalls", Json.Int r.M.mshr_stalls);
        ("device_launches", Json.Int r.M.device_launches);
      ]
  in
  let preset_json (preset, s) =
    let br, ms = totals s in
    ( preset,
      Json.Obj
        [
          ( "apps",
            Json.Obj
              (List.map
                 (fun row ->
                   ( row.Suite.app,
                     Json.Obj
                       [
                         ( "variants",
                           Json.Obj
                             (List.map
                                (fun (v, r) ->
                                  (H.variant_to_string v, report_json r))
                                row.Suite.results) );
                         ( "best",
                           Json.String (H.variant_to_string (best row)) );
                       ] ))
                 s) );
          ( "totals",
            Json.Obj
              [
                ("bank_conflict_replays", Json.Int br);
                ("mshr_stalls", Json.Int ms);
              ] );
        ] )
  in
  let j =
    Json.Obj
      [
        ("schema", Json.String "dpc-memmodel-bench-v1");
        ("source", Json.String "bench/main.exe --memmodel-sweep");
        ( "note",
          Json.String
            "figs 7-10 evaluation suite per device preset; 'crossovers' \
             lists apps whose fastest consolidation granularity shifts \
             versus the flat k20c model" );
        ("presets", Json.Obj (List.map preset_json suites));
        ( "crossovers",
          Json.List
            (List.map
               (fun (preset, app, w0, w) ->
                 Json.Obj
                   [
                     ("preset", Json.String preset);
                     ("app", Json.String app);
                     ("k20c_best", Json.String (H.variant_to_string w0));
                     ("best", Json.String (H.variant_to_string w));
                   ])
               crossovers) );
        ("crossover_count", Json.Int (List.length crossovers));
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty j));
  Printf.printf "bench: memmodel sweep -> %s\n" out

let () =
  (* --smoke: the reduced CI run — bechamel rows at a small quota, no
     ablation sweeps.  --cache-sweep: only the compiled-kernel cache
     sweep.  --sched-sweep: only the pool-scheduler sweep.
     --serve-sweep: only the serve-daemon sweep.  --memmodel-sweep: only
     the memory-model preset sweep.  Default: full microbenchmarks +
     ablations + all sweeps. *)
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let cache_only = Array.exists (( = ) "--cache-sweep") Sys.argv in
  let sched_only = Array.exists (( = ) "--sched-sweep") Sys.argv in
  let serve_only = Array.exists (( = ) "--serve-sweep") Sys.argv in
  let memmodel_only = Array.exists (( = ) "--memmodel-sweep") Sys.argv in
  if smoke then begin
    run_bechamel ~quota:0.05 ();
    print_endline "bench: smoke done"
  end
  else if cache_only then bench_cache_sweep ~out:"BENCH_pr5.json" ()
  else if sched_only then bench_sched_sweep ~out:"BENCH_pr6.json" ()
  else if serve_only then bench_serve_sweep ~out:"BENCH_pr7.json" ()
  else if memmodel_only then bench_memmodel_sweep ~out:"BENCH_pr10.json" ()
  else begin
    (* Microbenchmarks stay serial (they measure wall time); the ablation
       sweeps fan out over the shared session's domains. *)
    run_bechamel ();
    let session = Session.create ~jobs:(Pool.default_jobs ()) () in
    let pool = Pool.create ~jobs:(Pool.default_jobs ()) () in
    ablation_launch_latency session;
    ablation_scheduler session;
    ablation_pool_capacity session;
    ablation_buffer_sizing pool;
    ablation_scale_growth session;
    ablation_free_launch ();
    bench_sched_sweep ~out:"BENCH_pr6.json" ();
    bench_cache_sweep ~out:"BENCH_pr5.json" ();
    bench_serve_sweep ~out:"BENCH_pr7.json" ();
    bench_memmodel_sweep ~out:"BENCH_pr10.json" ();
    print_endline "bench: done (see bin/experiments.exe for the paper figures)"
  end
