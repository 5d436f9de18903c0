(* Unit tests of the discrete-event timing model, run on the deliberately
   tiny [Config.test_device] so concurrency and pool effects appear at
   small problem sizes. *)

open Dpc_kir.Build
module Cfg = Dpc_gpu.Config
module Device = Dpc_sim.Device
module M = Dpc_sim.Metrics
module V = Dpc_kir.Value
module Kernel = Dpc_kir.Kernel

let mk_program kernels =
  let p = Kernel.Program.create () in
  List.iter (Kernel.Program.add p) kernels;
  p

(* A kernel doing a fixed amount of per-thread busy work. *)
let busy_kernel name iters =
  kernel ~name ~params:[ pi "out" ]
    [
      set "acc" (i 0);
      for_ "k" ~from:(i 0) ~below:(i iters) [ set "acc" (v "acc" +: v "k") ];
      store (v "out") (i 0) (v "acc");
    ]

let run_report ?(cfg = Cfg.test_device) kernels ~entry ~grid ~block =
  let dev = Device.create ~cfg (mk_program kernels) in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev entry ~grid ~block [ V.Vbuf out.Dpc_gpu.Memory.id ];
  Device.report dev

let test_more_blocks_take_longer () =
  (* Enough per-block work that execution dominates the host launch
     latency included in the end-to-end cycle count. *)
  let r1 = run_report [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:1 ~block:32 in
  (* 32 blocks on a 2-SMX device with 4 blocks/SMX: ~4 sequential waves. *)
  let r8 = run_report [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:32 ~block:32 in
  Alcotest.(check bool) "more blocks, more cycles" true
    (r8.M.cycles > r1.M.cycles *. 1.5)

let test_occupancy_higher_with_more_warps () =
  let r1 = run_report [ busy_kernel "b" 500 ] ~entry:"b" ~grid:1 ~block:32 in
  let r4 = run_report [ busy_kernel "b" 500 ] ~entry:"b" ~grid:8 ~block:64 in
  Alcotest.(check bool) "occupancy grows" true
    (r4.M.occupancy > r1.M.occupancy)

(* Launch storms must overflow the tiny device's 16-entry fixed pool. *)
let test_pool_overflow_penalty () =
  let child = busy_kernel "child" 5 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ]
  in
  let r =
    run_report [ child; parent ] ~entry:"parent" ~grid:4 ~block:64
  in
  (* 4 blocks x 64 threads = 256 launches >> 16 pool entries *)
  Alcotest.(check int) "launch count" 256 r.M.device_launches;
  Alcotest.(check bool) "pool overflowed" true (r.M.max_pending > 16);
  Alcotest.(check bool) "virtualized launches recorded" true
    (r.M.virtualized_launches > 0)

let test_sync_swap_recorded () =
  let child = busy_kernel "child" 50 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [
        if_then (tid ==: i 0)
          [ launch "child" ~grid:(i 2) ~block:(i 32) [ v "out" ] ];
        device_sync;
        store (v "out") (i 1) (i 7);
      ]
  in
  let r = run_report [ child; parent ] ~entry:"parent" ~grid:1 ~block:32 in
  Alcotest.(check bool) "sync caused a swap" true (r.M.swapped_syncs >= 1)

let test_launch_latency_raises_total () =
  let child = busy_kernel "child" 5 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [
        if_then (tid ==: i 0)
          [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ];
      ]
  in
  let run lat =
    let cfg = { Cfg.test_device with Cfg.device_launch_latency = lat } in
    (run_report ~cfg [ child; parent ] ~entry:"parent" ~grid:1 ~block:32)
      .M.cycles
  in
  Alcotest.(check bool) "latency visible end-to-end" true
    (run 50_000 -. run 1_000 > 40_000.0)

let test_host_launches_serialize () =
  let k = busy_kernel "b" 50 in
  let dev = Device.create ~cfg:Cfg.test_device (mk_program [ k ]) in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev "b" ~grid:1 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  let one = (Device.report dev).M.cycles in
  Device.launch dev "b" ~grid:1 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  let two = (Device.report dev).M.cycles in
  Alcotest.(check bool) "two launches take about twice as long" true
    (two > one *. 1.7)

let test_fcfs_not_slower_than_ps () =
  (* Without contention modeling every block runs at its solo rate, so the
     FCFS discipline can only speed things up. *)
  let mk sched =
    let dev =
      Device.create ~cfg:Cfg.test_device ~scheduler:sched
        (mk_program [ busy_kernel "b" 300 ])
    in
    let out = Device.alloc_int dev ~name:"out" 4 in
    Device.launch dev "b" ~grid:8 ~block:64 [ V.Vbuf out.Dpc_gpu.Memory.id ];
    (Device.report dev).M.cycles
  in
  Alcotest.(check bool) "fcfs <= ps" true
    (mk Dpc_sim.Timing.Fcfs <= mk Dpc_sim.Timing.Processor_sharing +. 1.0)

let test_report_deterministic () =
  let run () =
    (run_report [ busy_kernel "b" 100 ] ~entry:"b" ~grid:4 ~block:64).M.cycles
  in
  Alcotest.(check (float 0.0)) "same cycles both runs" (run ()) (run ())

(* --- deep memory-model features: Memmodel counting + Timing pricing --- *)

module Mm = Dpc_sim.Memmodel
module T = Dpc_sim.Trace

let deep_cfg =
  {
    Cfg.test_device with
    Cfg.shared_banks = 32;
    bank_replay_cycles = 2;
    mshr_per_warp = 8;
    mshr_retire_per_access = 1;
    mshr_stall_cycles = 4;
  }

let test_memmodel_bank_replays () =
  let mm = Mm.create deep_cfg in
  let seg = T.seg_builder () in
  let idx f = Array.init 32 f in
  let count a =
    let before = seg.T.bank_rp in
    Mm.account_shared mm ~seg a 32;
    seg.T.bank_rp - before
  in
  Alcotest.(check int) "unit stride is conflict-free" 0
    (count (idx (fun l -> l)));
  Alcotest.(check int) "one word broadcasts for free" 0
    (count (idx (fun _ -> 7)));
  Alcotest.(check int) "stride two: two words per bank, one replay" 1
    (count (idx (fun l -> 2 * l)));
  Alcotest.(check int) "stride 32: all lanes on one bank" 31
    (count (idx (fun l -> 32 * l)));
  (* Two distinct words 64 apart share one dedup scratch slot; the
     linear fallback must still see two words on bank zero (one
     replay), not collapse them into a broadcast. *)
  Alcotest.(check int) "slot-colliding words stay distinct" 1
    (count (idx (fun l -> if l < 16 then 0 else 64)))

let test_memmodel_mshr_stalls () =
  let mm = Mm.create deep_cfg in
  Mm.block_start mm;
  let seg = T.seg_builder () in
  (* 32 lanes touch 32 distinct cold segments: 32 misses against the
     8-entry budget leave 24 transactions past it. *)
  let addrs = Array.init 32 (fun l -> l * 128) in
  Mm.account_access mm ~seg ~warp:0 addrs 32;
  Alcotest.(check int) "misses counted" 32 seg.T.dram;
  Alcotest.(check int) "stalls past the budget" 24 seg.T.mshr_st;
  (* The same segments now hit in L2: no new misses, and the occupancy
     drains instead of stalling again. *)
  Mm.account_access mm ~seg ~warp:0 addrs 32;
  Alcotest.(check int) "hits add no stalls" 24 seg.T.mshr_st;
  Alcotest.(check int) "hits served by L2" 32 seg.T.l2;
  (* A fresh block resets per-warp occupancy. *)
  Mm.block_start mm;
  let seg2 = T.seg_builder () in
  Mm.account_access mm ~seg:seg2 ~warp:0 [| 0 |] 1;
  Alcotest.(check int) "block reset: one hit, no stall" 0 seg2.T.mshr_st

let test_dual_issue_speedup () =
  (* One block of two warps on a 4-slot SMX: single-issue caps the block
     at 2 instructions/cycle, dual-issue at 4. *)
  let run ipw =
    let cfg = { Cfg.test_device with Cfg.issue_per_warp = ipw } in
    (run_report ~cfg [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:1 ~block:64)
      .M.cycles
  in
  let single = run 1 and dual = run 2 in
  Alcotest.(check bool) "dual-issue is materially faster" true
    (dual < single *. 0.8)

let test_bank_replays_charged () =
  let k =
    kernel ~name:"b" ~params:[ pi "out" ] ~shared:[ ("s", 64) ]
      [
        shared_set "s" (tid *: i 2 %: i 64) tid;
        sync;
        store (v "out") (i 0) (shared "s" (i 0));
      ]
  in
  let run banks =
    let cfg =
      {
        Cfg.test_device with
        Cfg.shared_banks = banks;
        bank_replay_cycles = 64;
      }
    in
    run_report ~cfg [ k ] ~entry:"b" ~grid:1 ~block:32
  in
  let off = run 0 and on_ = run 32 in
  Alcotest.(check int) "no replays with banks unmodeled" 0
    off.M.bank_conflict_replays;
  Alcotest.(check bool) "stride-two store replays" true
    (on_.M.bank_conflict_replays > 0);
  Alcotest.(check bool) "replays cost cycles" true
    (on_.M.cycles > off.M.cycles)

let test_mshr_stalls_charged () =
  let k =
    kernel ~name:"b"
      ~params:[ pi "d"; pi "out" ]
      [
        set "x" (load (v "d") (tid *: i 64));
        store (v "out") (i 0) (v "x");
      ]
  in
  let run mshr =
    let cfg =
      {
        Cfg.test_device with
        Cfg.mshr_per_warp = mshr;
        mshr_retire_per_access = 1;
        mshr_stall_cycles = 100;
      }
    in
    let dev = Device.create ~cfg (mk_program [ k ]) in
    let d = Device.alloc_int dev ~name:"d" 2048 in
    let out = Device.alloc_int dev ~name:"out" 4 in
    Device.launch dev "b" ~grid:1 ~block:32
      [ V.Vbuf d.Dpc_gpu.Memory.id; V.Vbuf out.Dpc_gpu.Memory.id ];
    Device.report dev
  in
  let off = run 0 and on_ = run 8 in
  Alcotest.(check int) "no stalls with MSHRs unmodeled" 0 off.M.mshr_stalls;
  Alcotest.(check bool) "scatter past the budget stalls" true
    (on_.M.mshr_stalls > 0);
  Alcotest.(check bool) "stalls cost cycles" true
    (on_.M.cycles > off.M.cycles)

let suite =
  [
    Alcotest.test_case "blocks serialize" `Quick test_more_blocks_take_longer;
    Alcotest.test_case "occupancy grows with warps" `Quick
      test_occupancy_higher_with_more_warps;
    Alcotest.test_case "pool overflow" `Quick test_pool_overflow_penalty;
    Alcotest.test_case "sync swap" `Quick test_sync_swap_recorded;
    Alcotest.test_case "launch latency" `Quick test_launch_latency_raises_total;
    Alcotest.test_case "host launches serialize" `Quick
      test_host_launches_serialize;
    Alcotest.test_case "fcfs vs ps" `Quick test_fcfs_not_slower_than_ps;
    Alcotest.test_case "deterministic" `Quick test_report_deterministic;
    Alcotest.test_case "memmodel bank replays" `Quick
      test_memmodel_bank_replays;
    Alcotest.test_case "memmodel mshr stalls" `Quick
      test_memmodel_mshr_stalls;
    Alcotest.test_case "dual issue" `Quick test_dual_issue_speedup;
    Alcotest.test_case "bank replays charged" `Quick
      test_bank_replays_charged;
    Alcotest.test_case "mshr stalls charged" `Quick test_mshr_stalls_charged;
  ]

(* A chart is rendered as lines; each pinned chart is a list of them, so
   trailing blanks stay visible. *)
let chart_lines chart = String.split_on_char '\n' chart

(* Rendered from the replay's event stream ([Device.profile]) and pinned
   whole: a change to the fold or to the renderer shows here. *)
let test_timeline_renders () =
  let dev =
    Device.create ~cfg:Cfg.test_device (mk_program [ busy_kernel "b" 200 ])
  in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev "b" ~grid:4 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  let events = Device.profile dev in
  let chart =
    Dpc_sim.Timeline.of_events ~width:40 ~height:4 Cfg.test_device
      ~total_cycles:(Device.report dev).M.cycles events
  in
  Alcotest.(check (list string)) "chart"
    [
      "   16w |                                        ";
      "       |                                        ";
      "       |                                        ";
      "    0w |                                   #@@#@";
      "       +----------------------------------------";
      "        0 cycles 8021 cycles (resident warps over time)";
      "";
    ]
    (chart_lines chart)

let test_timeline_bucketize_conserves_mass () =
  (* Time-weighted warp mass is preserved by bucketing. *)
  let samples = [ (0.0, 10); (50.0, 20); (75.0, 0) ] in
  let total = 100.0 in
  let buckets = Dpc_sim.Timeline.bucketize ~width:10 ~total samples in
  let mass = Array.fold_left ( +. ) 0.0 buckets *. (total /. 10.0) in
  (* 10 warps * 50 cycles + 20 * 25 + 0 * 25 = 1000 *)
  Alcotest.(check (float 1e-6)) "mass" 1000.0 mass

let suite =
  suite
  @ [
      Alcotest.test_case "timeline renders" `Quick test_timeline_renders;
      Alcotest.test_case "timeline mass" `Quick
        test_timeline_bucketize_conserves_mass;
    ]

(* --- golden replay pins ----------------------------------------------------

   Exact fingerprints of the replay on a fixed set of cases: every
   [Timing.result] field (floats in [%h], so bit-exact) and the
   Chrome-trace JSON of the profiled event stream (length plus MD5; it
   carries every block placement and removal the utilization chart is
   folded from).  They were captured before the event queue was
   rewritten without stale entries; the rewrite must not move a bit.
   A case that ends in [Timing.Stuck] pins its message and the events
   published up to that point. *)

module Timing = Dpc_sim.Timing
module Interp = Dpc_sim.Interp
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session

let md5 s = Digest.to_hex (Digest.string s)

let replay_pin ~scheduler cfg grids roots =
  let recorder = Dpc_prof.Event.recorder () in
  let traced =
    Timing.create ~scheduler ~sink:(Dpc_prof.Event.sink recorder) cfg grids
      roots
  in
  let outcome =
    match Timing.run traced with
    | r ->
      Printf.sprintf
        "total=%h occ=%h extra_dram=%d virt=%d max_pending=%d swapped=%d"
        r.Timing.total_cycles r.Timing.occupancy r.Timing.extra_dram
        r.Timing.virtualized_launches r.Timing.max_pending
        r.Timing.swapped_syncs
    | exception Timing.Stuck msg -> "stuck: " ^ msg
  in
  let events = Dpc_prof.Event.events recorder in
  Printf.sprintf "%s trace=%d/%s" outcome (Array.length events)
    (md5
       (Dpc_prof.Chrome_trace.to_string ~num_smx:cfg.Cfg.num_smx events))

let session_pin ~scheduler s =
  replay_pin ~scheduler s.Interp.cfg (Interp.grids s) (Interp.roots s)

(* The [test_timing] kernels above, under both disciplines. *)
let kernel_pin sched name =
  let child = busy_kernel "child" 50 in
  let dev kernels =
    Device.create ~cfg:Cfg.test_device ~scheduler:sched (mk_program kernels)
  in
  let run d entry ~grid ~block =
    let out = Device.alloc_int d ~name:"out" 4 in
    Device.launch d entry ~grid ~block [ V.Vbuf out.Dpc_gpu.Memory.id ];
    session_pin ~scheduler:sched (Device.session d)
  in
  match name with
  | "waves" -> run (dev [ busy_kernel "b" 300 ]) "b" ~grid:32 ~block:64
  | "pool overflow" ->
    let parent =
      kernel ~name:"parent" ~params:[ pi "out" ]
        [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ]
    in
    run (dev [ child; parent ]) "parent" ~grid:4 ~block:64
  | "sync swap" ->
    let parent =
      kernel ~name:"parent" ~params:[ pi "out" ]
        [
          if_then (tid ==: i 0)
            [ launch "child" ~grid:(i 2) ~block:(i 32) [ v "out" ] ];
          device_sync;
          store (v "out") (i 1) (i 7);
        ]
    in
    run (dev [ child; parent ]) "parent" ~grid:3 ~block:32
  | _ -> invalid_arg name

(* One app scenario through the engine; the pin is taken on the device
   the scenario ran on, before its report.  Only the known [Stuck] is
   tolerated: any other failure (a verification mismatch included)
   fails the test. *)
let scenario_pin key =
  let sc = Scenario.of_string key in
  let pin = ref "" in
  let inspect (sc : Scenario.t) dev =
    pin := session_pin ~scheduler:sc.Scenario.scheduler (Device.session dev)
  in
  (match (Session.run_outcome ~inspect (Session.create ()) sc).Session.result with
   | Ok _ | Error (Timing.Stuck _) -> ()
   | Error e -> raise e);
  !pin

let golden_kernels =
  [
    ("waves", Timing.Processor_sharing,
      "total=0x1.1118p+14 occ=0x1.ffe3d89aa6a04p-1 extra_dram=0 virt=0 max_pending=1 swapped=0 trace=69/9eab4271555235a3675d44813d22f766");
    ("waves", Timing.Fcfs,
      "total=0x1.7e9p+13 occ=0x1.ffc7b555dac3fp-1 extra_dram=0 virt=0 max_pending=1 swapped=0 trace=69/41c3eda6ab964df2371a078719c8e26f");
    ("pool overflow", Timing.Processor_sharing,
      "total=0x1.ed834p+18 occ=0x1.c013844f808ffp-3 extra_dram=3840 virt=240 max_pending=254 swapped=0 trace=2042/e7eb90ed6fe91e1f096716b6b9f30c72");
    ("pool overflow", Timing.Fcfs,
      "total=0x1.ed834p+18 occ=0x1.bed7aa1f919dfp-3 extra_dram=3840 virt=240 max_pending=254 swapped=0 trace=2042/8231147a1d411478a22967e5b549c848");
    ("sync swap", Timing.Processor_sharing,
      "total=0x1.d9bp+13 occ=0x1.66e94b65650c5p-3 extra_dram=72 virt=0 max_pending=3 swapped=3 trace=49/78d30f8dd990c7b307ac11e63db46e01");
    ("sync swap", Timing.Fcfs,
      "total=0x1.d9bp+13 occ=0x1.66e94b65650c5p-3 extra_dram=72 virt=0 max_pending=3 swapped=3 trace=49/78d30f8dd990c7b307ac11e63db46e01");
  ]

let golden_scenarios =
  [
    (* device launches and parent swap-out at the device sync *)
    ( "app=TH,variant=block-level,scale=32",
      "total=0x1.2fe4p+15 occ=0x1.16021b464b01dp-6 extra_dram=240 virt=0 max_pending=5 swapped=10 trace=518/874e88153bbc70bbeae58cb009f78889" );
    ( "app=BFS-Rec,variant=block-level,scale=6",
      "total=0x1.9d02p+14 occ=0x1.0203898d70a6bp-5 extra_dram=0 virt=0 max_pending=8 swapped=0 trace=524/b6e05ed927250a5f29ed8ea02d61022c" );
    ( "app=TH,variant=block-level,scale=32,sched=fcfs",
      "total=0x1.2fe4p+15 occ=0x1.16021b464b01dp-6 extra_dram=240 virt=0 max_pending=5 swapped=10 trace=518/874e88153bbc70bbeae58cb009f78889" );
    (* grid-wide barrier *)
    ( "app=SSSP,variant=grid-level,scale=200",
      "total=0x1.73e0cp+16 occ=0x1.f15c29d8361c7p-3 extra_dram=0 virt=0 max_pending=1 swapped=0 trace=2587/0199eee77145bb2ef975a238ec84bf74" );
    (* virtualized pending pool *)
    ( "app=BFS-Rec,variant=basic-dp,scale=6,cfg.fixed_pool_capacity=4",
      "total=0x1.b5d1cp+16 occ=0x1.633506458f1bfp-5 extra_dram=752 virt=47 max_pending=39 swapped=0 trace=404/6d6a7ada8ccb26051ebe8e5f4e736c08" );
    (* deep memory-model presets *)
    ( "app=SpMV,variant=block-level,scale=200,cfg=k20c-deep",
      "total=0x1.bc3p+13 occ=0x1.2b10f0dd7bb23p-5 extra_dram=0 virt=0 max_pending=2 swapped=0 trace=72/42593e8a103443e81b83568a1b3a63e6" );
    ( "app=PageRank,variant=warp-level,scale=200,cfg=milo832",
      "total=0x1.8e204p+17 occ=0x1.02a504dc1ddcep-2 extra_dram=0 virt=0 max_pending=7 swapped=0 trace=337/9ea748cd5d45e1e5f7385c4d8944663f" );
    (* a known deadlock of the model *)
    ( "app=TH,variant=block-level,alloc=default,scale=12",
      "stuck: timing model finished with 443 incomplete grids (deadlock?) trace=2997/034abb1fb4cef9943905f7e0d835b281" );
  ]

(* A basic-dp app run's utilization chart, through the engine's per-batch
   hook; pinned like [test_timeline_renders]. *)
let test_app_timeline_pinned () =
  let chart = ref "" in
  let inspect _ dev =
    let events = Device.profile dev in
    chart :=
      Dpc_sim.Timeline.of_events ~width:40 ~height:4 (Device.config dev)
        ~total_cycles:(Device.report dev).M.cycles events
  in
  let sc =
    Scenario.of_string "app=SSSP,variant=basic-dp,scale=200,cfg=milo832"
  in
  let outcomes = Session.run_all ~inspect (Session.create ()) [ sc ] in
  ignore (Session.report (List.hd outcomes) : M.report);
  Alcotest.(check (list string)) "chart"
    [
      "   32w |                                        ";
      "       |                                        ";
      "       |  ###    ###   ####   ###    ###    ### ";
      "    0w |:#####:@#####.#####+=#####:*#####.@#####";
      "       +----------------------------------------";
      "        0 cycles 351252 cycles (resident warps over time)";
      "";
    ]
    (chart_lines !chart)

let test_golden_kernels () =
  List.iter
    (fun (name, sched, expect) ->
      let label =
        Printf.sprintf "%s/%s" name (Scenario.scheduler_to_string sched)
      in
      Alcotest.(check string) label expect (kernel_pin sched name))
    golden_kernels

let test_golden_scenarios () =
  List.iter
    (fun (key, expect) ->
      Alcotest.(check string) key expect (scenario_pin key))
    golden_scenarios

(* A Fig. 6 point whose replay reaches 5.5e9 cycles: there a block's last
   few instructions take less than half an ulp of the clock, so its
   completion key lands on the current time again and again.  The replay
   must close that segment and finish. *)
let test_late_replay_finishes () =
  let sc =
    Scenario.of_string
      "app=TD,variant=warp-level,policy=208x256,x.max_nodes=40000,\
       x.dataset=dataset1"
  in
  let r = Session.run (Session.create ()) sc in
  Alcotest.(check (float 0.0)) "cycles" 5_543_395_275.0 r.M.cycles

let suite =
  suite
  @ [
      Alcotest.test_case "golden replay kernels" `Quick test_golden_kernels;
      Alcotest.test_case "late replay finishes" `Quick
        test_late_replay_finishes;
      Alcotest.test_case "golden replay scenarios" `Quick
        test_golden_scenarios;
      Alcotest.test_case "app timeline pinned" `Quick test_app_timeline_pinned;
    ]

(* --- the replay's event queue ----------------------------------------------

   Driven by random insert / rekey / cancel / pop sequences and checked
   against a naive model: a list of (id, time, seq) entries whose minimum
   under (time, seq) is what must pop next.  Times come from a small set
   so that equal times are common; a rekey takes either a fresh seq or
   an earlier one no queued entry holds (an SMX's entry moves back to an
   older key when its earliest block leaves). *)

module Q = Timing.Event_queue

type q_op = Set of int * int * int option | Cancel of int | Pop

let q_ids = 6
let q_times = [| 0.0; 1.0; 1.0; 2.5; 4.0 |]

let q_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun id ti reuse -> Set (id, ti, reuse))
            (int_bound (q_ids - 1))
            (int_bound (Array.length q_times - 1))
            (opt ~ratio:0.3 (int_bound 50)) );
        (1, map (fun id -> Cancel id) (int_bound (q_ids - 1)));
        (3, return Pop);
      ])

let q_op_print = function
  | Set (id, ti, reuse) ->
    Printf.sprintf "set %d %g%s" id q_times.(ti)
      (match reuse with Some k -> Printf.sprintf " reuse %d" k | None -> "")
  | Cancel id -> Printf.sprintf "cancel %d" id
  | Pop -> "pop"

let key_before (t1, s1) (t2, s2) = t1 < t2 || (t1 = t2 && s1 < s2)

let prop_queue_matches_model =
  QCheck.Test.make ~count:500 ~name:"event queue matches sorted-list model"
    QCheck.(
      make ~print:Print.(list q_op_print) Gen.(list_size (int_bound 120) q_op_gen))
    (fun ops ->
      let q = Q.create ~ids:q_ids in
      let model = ref [] (* (id, time, seq) *) in
      let issued = ref [] (* every seq handed out, newest first *) in
      let next = ref 0 in
      let rekeys = ref 0 and cancels = ref 0 and peak = ref 0 in
      let model_min () =
        List.fold_left
          (fun acc ((_, t, s) as e) ->
            match acc with
            | Some (_, bt, bs) when not (key_before (t, s) (bt, bs)) -> acc
            | _ -> Some e)
          None !model
      in
      let pop () =
        match model_min () with
        | None -> Q.is_empty q
        | Some ((id, t, s) as e) ->
          let ok =
            (not (Q.is_empty q))
            && Q.min_id q = id
            && Q.min_seq q = s
            && Float.equal (Q.min_time q) t
          in
          Q.pop q;
          model := List.filter (fun x -> x != e) !model;
          ok
      in
      let step = function
        | Set (id, ti, reuse) ->
          let time = q_times.(ti) in
          let held s = List.exists (fun (_, _, s') -> s' = s) !model in
          let fresh () =
            let s = !next in
            incr next;
            issued := s :: !issued;
            s
          in
          let seq =
            match reuse with
            | Some k when !issued <> [] ->
              let s = List.nth !issued (k mod List.length !issued) in
              if held s then fresh () else s
            | _ -> fresh ()
          in
          (match List.find_opt (fun (i, _, _) -> i = id) !model with
          | Some (_, t, s) ->
            if not (Float.equal t time && s = seq) then incr rekeys
          | None -> ());
          model :=
            (id, time, seq) :: List.filter (fun (i, _, _) -> i <> id) !model;
          peak := Int.max !peak (List.length !model);
          Q.set q id time seq;
          true
        | Cancel id ->
          if List.exists (fun (i, _, _) -> i = id) !model then incr cancels;
          model := List.filter (fun (i, _, _) -> i <> id) !model;
          Q.cancel q id;
          true
        | Pop -> pop ()
      in
      let consistent () =
        Q.length q = List.length !model
        && List.for_all
             (fun id ->
               Q.mem q id = List.exists (fun (i, _, _) -> i = id) !model)
             (List.init q_ids Fun.id)
      in
      let ok = List.for_all (fun op -> step op && consistent ()) ops in
      (* Drain: the rest must pop in model order too. *)
      let rec drain () = !model = [] || (pop () && drain ()) in
      ok && drain () && Q.is_empty q
      && Q.rekeys q = !rekeys
      && Q.cancels q = !cancels
      && Q.peak q = !peak)

let test_queue_sorted_output () =
  let n = 500 in
  let q = Q.create ~ids:n in
  let r = Dpc_util.Rng.create 5 in
  for id = 0 to n - 1 do
    Q.set q id (Dpc_util.Rng.float r) id
  done;
  let last = ref neg_infinity in
  let popped = ref 0 in
  while not (Q.is_empty q) do
    let t = Q.min_time q in
    Alcotest.(check bool) "non-decreasing" true (t >= !last);
    last := t;
    Q.pop q;
    incr popped
  done;
  Alcotest.(check int) "all popped" n !popped

let test_queue_fifo_ties () =
  let q = Q.create ~ids:3 in
  (* Equal times pop in seq order, whatever the insertion order. *)
  Q.set q 0 1.0 0;
  Q.set q 1 1.0 1;
  Q.set q 2 1.0 2;
  let pop () =
    let id = Q.min_id q in
    Q.pop q;
    id
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "seq order on ties" [ 0; 1; 2 ]
    [ first; second; third ];
  Q.set q 2 1.0 5;
  Q.set q 0 1.0 7;
  Q.set q 1 1.0 6;
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "not insertion order" [ 2; 1; 0 ]
    [ first; second; third ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_queue_matches_model;
      Alcotest.test_case "event queue sorted" `Quick test_queue_sorted_output;
      Alcotest.test_case "event queue fifo ties" `Quick test_queue_fifo_ties;
    ]

(* --- one replay per profiled run ---------------------------------------------

   [Device.profile] caches the report of its own sink-attached replay,
   so a later [Device.report] does not replay again.  That report must
   equal an unprofiled device's, bit for bit. *)

let report_bits (r : M.report) =
  Printf.sprintf
    "cycles=%h time_ms=%h eff=%h occ=%h host=%d dev=%d dram=%d l2=%d \
     banks=%d mshr=%d allocs=%d alloc_cycles=%d fallbacks=%d virt=%d \
     pending=%d swapped=%d depth=%d grids=%d"
    r.M.cycles r.M.time_ms r.M.warp_efficiency r.M.occupancy
    r.M.host_launches r.M.device_launches r.M.dram_transactions r.M.l2_hits
    r.M.bank_conflict_replays r.M.mshr_stalls r.M.alloc_calls
    r.M.alloc_cycles r.M.pool_fallbacks r.M.virtualized_launches
    r.M.max_pending r.M.swapped_syncs r.M.max_depth r.M.total_grids

let test_profile_caches_report () =
  let launched () =
    let parent =
      kernel ~name:"parent" ~params:[ pi "out" ]
        [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ]
    in
    let dev =
      Device.create ~cfg:Cfg.test_device
        (mk_program [ busy_kernel "child" 5; parent ])
    in
    let out = Device.alloc_int dev ~name:"out" 4 in
    Device.launch dev "parent" ~grid:4 ~block:64
      [ V.Vbuf out.Dpc_gpu.Memory.id ];
    dev
  in
  let profiled = launched () in
  let events = Device.profile profiled in
  Alcotest.(check bool) "profile recorded events" true
    (Array.length events > 0);
  Alcotest.(check string) "report after profile = unprofiled report"
    (report_bits (Device.report (launched ())))
    (report_bits (Device.report profiled))

let suite =
  suite
  @ [ Alcotest.test_case "profile caches its report" `Quick
        test_profile_caches_report ]

(* --- global-memory coalescing against the quadratic model -------------------

   [Memmodel.account_access] finds a lane's segment with a shift when
   the segment size is a power of two and the address is non-negative,
   and finds repeats through the previous lane and a stamped slot
   table.  The reference below is the plain form it replaced: a
   division per lane and a linear scan of the segments seen so far.
   Both run the same calls; after every call the L2/DRAM/stall counts
   and the L2 tags must agree, and a call that raises (a negative
   segment has no L2 slot) must raise the same way in both. *)

type ref_mm = {
  r_cfg : Cfg.t;
  r_tags : int array;
  r_seen : int array;
  r_out : int array;
}

let ref_mm (cfg : Cfg.t) =
  {
    r_cfg = cfg;
    r_tags = Array.make cfg.Cfg.l2_segments (-1);
    r_seen = Array.make 32 0;
    r_out = Array.make 64 0;
  }

let ref_account r ~(seg : T.seg_builder) ~warp (addrs : int array) n =
  let seg_bytes = r.r_cfg.Cfg.mem_segment_bytes in
  let ntags = Array.length r.r_tags in
  let nseen = ref 0 in
  let dram_before = seg.T.dram in
  for k = 0 to n - 1 do
    let sg = addrs.(k) / seg_bytes in
    let dup = ref false in
    for j = 0 to !nseen - 1 do
      if r.r_seen.(j) = sg then dup := true
    done;
    if not !dup then begin
      r.r_seen.(!nseen) <- sg;
      incr nseen;
      let idx = sg mod ntags in
      if r.r_tags.(idx) = sg then seg.T.l2 <- seg.T.l2 + 1
      else begin
        r.r_tags.(idx) <- sg;
        seg.T.dram <- seg.T.dram + 1
      end
    end
  done;
  let mshr = r.r_cfg.Cfg.mshr_per_warp in
  if mshr > 0 then begin
    let w = warp land 63 in
    let misses = seg.T.dram - dram_before in
    let out = Int.max 0 (r.r_out.(w) - r.r_cfg.Cfg.mshr_retire_per_access) in
    let total = out + misses in
    if total > mshr then begin
      seg.T.mshr_st <- seg.T.mshr_st + (total - mshr);
      r.r_out.(w) <- mshr
    end
    else r.r_out.(w) <- total
  end

(* One lane's address, as a segment number and a byte offset in it:
   repeats of a few segments, segments 64 apart (the same dedup slot),
   spread-out segments, and negative addresses — within one segment of
   zero (truncating division still gives segment 0) or further down. *)
type lane_addr = Same_as_prev | Addr of int * int

let lane_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Same_as_prev);
        (4, map2 (fun s o -> Addr (s, o)) (int_bound 6) (int_bound 1000));
        ( 3,
          map2
            (fun s o -> Addr ((s * 64) + 5, o))
            (int_bound 4) (int_bound 1000)
        );
        (2, map2 (fun s o -> Addr (s, o)) (int_bound 20_000) (int_bound 1000));
        (1, map (fun o -> Addr (0, -o)) (int_bound 1000));
        (1, map2 (fun s o -> Addr (-s, o)) (int_range 1 3) (int_bound 1000));
      ])

let addrs_of ~seg_bytes lanes =
  let a = Array.make (List.length lanes) 0 in
  List.iteri
    (fun k l ->
      a.(k) <-
        (match l with
        | Same_as_prev -> if k = 0 then 0 else a.(k - 1)
        | Addr (_, o) when o < 0 -> -(-o mod seg_bytes)
        | Addr (s, o) -> (s * seg_bytes) + (o mod seg_bytes)))
    lanes;
  a

type mm_case = {
  seg_bytes : int;
  l2 : int;
  mshr : int;
  calls : (int * lane_addr list) list;  (** warp, lanes *)
}

let mm_case_gen =
  QCheck.Gen.(
    map4
      (fun seg_bytes l2 mshr calls -> { seg_bytes; l2; mshr; calls })
      (oneofl [ 128; 96; 64; 1 ])
      (oneofl [ 64; 48 ])
      (oneofl [ 0; 3 ])
      (list_size (int_bound 24)
         (pair (int_bound 3) (list_size (int_bound 32) lane_gen))))

let mm_case_print c =
  Printf.sprintf "seg_bytes=%d l2=%d mshr=%d [%s]" c.seg_bytes c.l2 c.mshr
    (String.concat "; "
       (List.map
          (fun (w, lanes) ->
            Printf.sprintf "w%d:%s" w
              (String.concat ","
                 (Array.to_list
                    (Array.map string_of_int
                       (addrs_of ~seg_bytes:c.seg_bytes lanes)))))
          c.calls))

let prop_account_matches_model =
  QCheck.Test.make ~count:1000
    ~name:"account_access matches the quadratic model"
    (QCheck.make ~print:mm_case_print mm_case_gen)
    (fun c ->
      let cfg =
        { Cfg.k20c with
          Cfg.mem_segment_bytes = c.seg_bytes;
          l2_segments = c.l2;
          mshr_per_warp = c.mshr;
          mshr_retire_per_access = 1 }
      in
      let mm = Mm.create cfg and r = ref_mm cfg in
      let seg = T.seg_builder () and rseg = T.seg_builder () in
      let outcome f =
        match f () with () -> "ok" | exception e -> Printexc.to_string e
      in
      List.for_all
        (fun (warp, lanes) ->
          let a = addrs_of ~seg_bytes:c.seg_bytes lanes in
          let n = Array.length a in
          let got = outcome (fun () -> Mm.account_access mm ~seg ~warp a n) in
          let want = outcome (fun () -> ref_account r ~seg:rseg ~warp a n) in
          got = want && seg.T.l2 = rseg.T.l2 && seg.T.dram = rseg.T.dram
          && seg.T.mshr_st = rseg.T.mshr_st
          && Mm.l2_tags mm = r.r_tags)
        c.calls)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_account_matches_model ]
