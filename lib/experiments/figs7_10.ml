(** Figures 7-10: the overall-evaluation figures, all rendered from one
    {!Suite.t} collection.

    - Fig. 7: speedup over basic-dp per benchmark (plus no-dp).
    - Fig. 8: warp execution efficiency, annotated with the number of
      child-kernel invocations.
    - Fig. 9: achieved SMX occupancy.
    - Fig. 10: DRAM transactions relative to basic-dp. *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Table = Dpc_util.Table
module Pragma = Dpc_kir.Pragma

let cons_variants =
  [ H.Cons Pragma.Warp; H.Cons Pragma.Block; H.Cons Pragma.Grid ]

let headers = [ "benchmark"; "no-dp"; "warp-level"; "block-level"; "grid-level" ]
let aligns = Table.[ Left; Right; Right; Right; Right ]

let row_of suite_row f =
  suite_row.Suite.app
  :: List.map f (H.Flat :: cons_variants)

let fig7 (s : Suite.t) =
  let t =
    Table.create ~title:"Figure 7: overall speedup over basic-dp" ~headers
      ~aligns ()
  in
  List.iter
    (fun row ->
      Table.add_row t
        (row_of row (fun v ->
             Table.fmt_ratio (Suite.speedup_over_basic row v))))
    s;
  let means = Suite.mean_speedups s in
  Table.add_row t
    ("geomean"
    :: List.map
         (fun v -> Table.fmt_ratio (List.assoc v means))
         (H.Flat :: cons_variants));
  t

let fig8 (s : Suite.t) =
  let t =
    Table.create
      ~title:
        "Figure 8: warp execution efficiency (child kernel launches in \
         parentheses)"
      ~headers:
        [ "benchmark"; "basic-dp"; "warp-level"; "block-level"; "grid-level" ]
      ~aligns ()
  in
  List.iter
    (fun row ->
      Table.add_row t
        (row.Suite.app
        :: List.map
             (fun v ->
               let r = Suite.report_of row v in
               Printf.sprintf "%s (%d)"
                 (Table.fmt_pct r.M.warp_efficiency)
                 r.M.device_launches)
             (H.Basic :: cons_variants)))
    s;
  t

let fig9 (s : Suite.t) =
  let t =
    Table.create ~title:"Figure 9: achieved SMX occupancy"
      ~headers:
        [ "benchmark"; "basic-dp"; "warp-level"; "block-level"; "grid-level" ]
      ~aligns ()
  in
  List.iter
    (fun row ->
      Table.add_row t
        (row.Suite.app
        :: List.map
             (fun v ->
               Table.fmt_pct (Suite.report_of row v).M.occupancy)
             (H.Basic :: cons_variants)))
    s;
  t

let fig10 (s : Suite.t) =
  let t =
    Table.create
      ~title:"Figure 10: DRAM transactions relative to basic-dp"
      ~headers:
        [ "benchmark"; "warp-level"; "block-level"; "grid-level" ]
      ~aligns:Table.[ Left; Right; Right; Right ] ()
  in
  List.iter
    (fun row ->
      let basic = Float.of_int (Suite.basic row).M.dram_transactions in
      Table.add_row t
        (row.Suite.app
        :: List.map
             (fun v ->
               let r = Suite.report_of row v in
               Table.fmt_pct (Float.of_int r.M.dram_transactions /. basic))
             cons_variants))
    s;
  t

(** Section V.C text: average speedups of each consolidation granularity
    over basic-dp and over no-dp. *)
let summary (s : Suite.t) =
  let t =
    Table.create ~title:"Summary (Section V.C averages, geometric mean)"
      ~headers:[ "variant"; "speedup vs basic-dp"; "speedup vs no-dp" ]
      ~aligns:Table.[ Left; Right; Right ] ()
  in
  List.iter
    (fun v ->
      let over_basic =
        Dpc_util.Stats.geomean
          (List.map (fun row -> Suite.speedup_over_basic row v) s)
      in
      let over_flat =
        Dpc_util.Stats.geomean
          (List.map
             (fun row ->
               (Suite.report_of row H.Flat).M.cycles
               /. (Suite.report_of row v).M.cycles)
             s)
      in
      Table.add_row t
        [ H.variant_to_string v; Table.fmt_ratio over_basic;
          Table.fmt_ratio over_flat ])
    cons_variants;
  t
