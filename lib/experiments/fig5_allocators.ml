(** Figure 5: performance of the three consolidation-buffer allocators
    (CUDA default malloc, halloc, pre-allocated pool) on SSSP, at every
    consolidation granularity, normalized to basic-dp.

    Paper's findings to reproduce: default and halloc are close to each
    other; at warp level they are far worse than the pool (frequent small
    allocations); at block level the pool is ~5.7x ahead of them; at grid
    level (one buffer) all three are equivalent. *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Alloc = Dpc_alloc.Allocator
module Pragma = Dpc_kir.Pragma
module Table = Dpc_util.Table
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session

type result = {
  basic_cycles : float;
  flat_speedup : float;
  (* (granularity, allocator) -> speedup over basic *)
  cells : ((Pragma.granularity * Alloc.kind) * float) list;
}

let granularities = [ Pragma.Warp; Pragma.Block; Pragma.Grid ]
let allocators = [ Alloc.Default; Alloc.Halloc; Alloc.Pool ]

(* One independent simulation per table cell, plus the two references. *)
type task = Basic_ref | Flat_ref | Cell of Pragma.granularity * Alloc.kind

let tasks =
  Basic_ref :: Flat_ref
  :: List.concat_map
       (fun g -> List.map (fun a -> Cell (g, a)) allocators)
       granularities

let scenario ?scale task =
  match task with
  | Basic_ref -> Scenario.make ?scale ~app:"SSSP" H.Basic
  | Flat_ref -> Scenario.make ?scale ~app:"SSSP" H.Flat
  | Cell (g, a) -> Scenario.make ~alloc:a ?scale ~app:"SSSP" (H.Cons g)

(** The figure as a declarative scenario list.  Every cell differs from
    its siblings only in allocator (or granularity), so a caching session
    builds each consolidated program once and reuses it across the
    allocator sweep. *)
let scenarios ?scale () = List.map (scenario ?scale) tasks

let run ?scale ~session () : result =
  let reports =
    List.map Session.report (Session.run_all session (scenarios ?scale ()))
  in
  let tagged = List.combine tasks reports in
  let report_of t = List.assoc t tagged in
  let basic = report_of Basic_ref in
  let flat = report_of Flat_ref in
  let cells =
    List.filter_map
      (function
        | Cell (g, a), (r : M.report) ->
          Some ((g, a), basic.M.cycles /. r.M.cycles)
        | (Basic_ref | Flat_ref), _ -> None)
      tagged
  in
  {
    basic_cycles = basic.M.cycles;
    flat_speedup = basic.M.cycles /. flat.M.cycles;
    cells;
  }

let to_table (r : result) =
  let t =
    Table.create ~title:"Figure 5: buffer allocators on SSSP (speedup over basic-dp)"
      ~headers:[ "allocator"; "warp-level"; "block-level"; "grid-level" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ] ()
  in
  List.iter
    (fun a ->
      Table.add_row t
        (Alloc.kind_to_string a
        :: List.map
             (fun g -> Table.fmt_ratio (List.assoc (g, a) r.cells))
             granularities))
    allocators;
  Table.add_row t
    [ "(no-dp reference)"; Table.fmt_ratio r.flat_speedup;
      Table.fmt_ratio r.flat_speedup; Table.fmt_ratio r.flat_speedup ];
  t

let print ?scale ~session () = Table.print (to_table (run ?scale ~session ()))
