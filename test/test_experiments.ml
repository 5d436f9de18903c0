(* Tests for the experiment harness's aggregation and rendering, using
   synthetic reports (running the real suite takes minutes and is covered
   by bin/experiments.exe), plus the two sub-second device ablations. *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Suite = Dpc_experiments.Suite
module Figs = Dpc_experiments.Figs7_10
module Table = Dpc_util.Table
module Pragma = Dpc_kir.Pragma

let report ~cycles ~launches ~eff ~occ ~dram : M.report =
  {
    M.cycles;
    time_ms = cycles /. 706_000.0;
    host_launches = 1;
    device_launches = launches;
    warp_efficiency = eff;
    occupancy = occ;
    dram_transactions = dram;
    l2_hits = 0;
    bank_conflict_replays = 0;
    mshr_stalls = 0;
    alloc_calls = 0;
    alloc_cycles = 0;
    pool_fallbacks = 0;
    virtualized_launches = 0;
    max_pending = 1;
    swapped_syncs = 0;
    max_depth = 1;
    total_grids = launches + 1;
  }

let fake_row name : Suite.row =
  {
    Suite.app = name;
    dataset = "synthetic";
    results =
      [
        (H.Basic, report ~cycles:1000.0 ~launches:100 ~eff:0.3 ~occ:0.1 ~dram:1000);
        (H.Flat, report ~cycles:500.0 ~launches:0 ~eff:0.2 ~occ:0.2 ~dram:400);
        (H.Cons Pragma.Warp,
         report ~cycles:250.0 ~launches:10 ~eff:0.6 ~occ:0.3 ~dram:300);
        (H.Cons Pragma.Block,
         report ~cycles:200.0 ~launches:5 ~eff:0.7 ~occ:0.5 ~dram:250);
        (H.Cons Pragma.Grid,
         report ~cycles:100.0 ~launches:1 ~eff:0.8 ~occ:0.8 ~dram:200);
      ];
  }

let suite_data = [ fake_row "A"; fake_row "B" ]

let test_speedups () =
  let row = List.hd suite_data in
  Alcotest.(check (float 1e-9)) "flat speedup" 2.0
    (Suite.speedup_over_basic row H.Flat);
  Alcotest.(check (float 1e-9)) "grid speedup" 10.0
    (Suite.speedup_over_basic row (H.Cons Pragma.Grid))

let test_mean_speedups_geomean () =
  let means = Suite.mean_speedups suite_data in
  (* identical rows -> geomean equals the per-row speedup *)
  Alcotest.(check (float 1e-9)) "grid mean" 10.0
    (List.assoc (H.Cons Pragma.Grid) means)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_fig7_table () =
  let t = Figs.fig7 suite_data in
  let s = Table.render t in
  Alcotest.(check bool) "has benchmark rows" true (contains s "| A ");
  Alcotest.(check bool) "has geomean row" true (contains s "geomean");
  Alcotest.(check bool) "grid speedup rendered" true (contains s "10.00")

let test_fig8_table () =
  let s = Table.render (Figs.fig8 suite_data) in
  Alcotest.(check bool) "efficiency with launches" true
    (contains s "30.0% (100)")

let test_fig10_ratios () =
  let s = Table.render (Figs.fig10 suite_data) in
  (* 200/1000 = 20% for grid *)
  Alcotest.(check bool) "dram ratio" true (contains s "20.0%")

let test_summary_table () =
  let s = Table.render (Figs.summary suite_data) in
  Alcotest.(check bool) "vs basic and vs flat" true
    (contains s "10.00" && contains s "5.00")

(* A4 and A6 run hand-written programs on a [Device], outside any
   session; their rows are pinned to the values EXPERIMENTS.md reports. *)
let test_ablation_device_rows () =
  Alcotest.(check (list (list string)))
    "A4 rows"
    [ [ "4"; "391750"; "948" ]; [ "32"; "127932"; "287" ];
      [ "512"; "23311"; "24" ] ]
    (Table.rows (Dpc_experiments.Ablations.buffer_sizing ()));
  Alcotest.(check (list (list string)))
    "A6 rows"
    [ [ "basic-dp"; "421373"; "1020"; "18.1%" ];
      [ "free launch (thread reuse)"; "57596"; "0"; "9.9%" ];
      [ "grid-level consolidation"; "20145"; "1"; "83.7%" ] ]
    (Table.rows (Dpc_experiments.Ablations.free_launch ()))

let suite =
  [
    Alcotest.test_case "speedups" `Quick test_speedups;
    Alcotest.test_case "geomean" `Quick test_mean_speedups_geomean;
    Alcotest.test_case "fig7 table" `Quick test_fig7_table;
    Alcotest.test_case "fig8 table" `Quick test_fig8_table;
    Alcotest.test_case "fig10 ratios" `Quick test_fig10_ratios;
    Alcotest.test_case "summary table" `Quick test_summary_table;
    Alcotest.test_case "ablations A4/A6 rows" `Quick test_ablation_device_rows;
  ]
