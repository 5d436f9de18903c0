(** Figure 6: kernel-configuration selection on Tree Descendants, over
    tree datasets 1 and 2 — KC_1 / KC_16 / KC_32 versus 1-1 mapping and
    exhaustive search, per consolidation granularity, normalized to
    basic-dp.

    Paper's findings to reproduce: KC_1 is best for grid-level, KC_16 for
    block-level, KC_32 for warp-level; 1-1 mapping is much worse for
    block/warp level; the KC defaults reach ~97% of the exhaustive-search
    optimum. *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module Cs = Dpc.Config_select
module Pragma = Dpc_kir.Pragma
module Table = Dpc_util.Table
module Cfg = Dpc_gpu.Config
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session

type policy_point = Kc1 | Kc16 | Kc32 | One_to_one | Exhaustive

let policy_points = [ Kc1; Kc16; Kc32; One_to_one; Exhaustive ]

let point_name = function
  | Kc1 -> "KC_1"
  | Kc16 -> "KC_16"
  | Kc32 -> "KC_32"
  | One_to_one -> "1-1 mapping"
  | Exhaustive -> "exhaustive"

let granularities = [ Pragma.Warp; Pragma.Block; Pragma.Grid ]

(* Candidate (blocks, threads) space for the exhaustive search [16]. *)
let exhaustive_space (cfg : Cfg.t) =
  let threads = [ 32; 64; 128; 256 ] in
  List.concat_map
    (fun t ->
      let fill = Cfg.device_fill_blocks cfg ~block_dim:t in
      List.filter_map
        (fun b -> if b <= fill * 2 then Some (b, t) else None)
        [ 1; 2; 4; 8; 13; 26; 52; 104; 208 ])
    threads

type dataset_result = {
  dataset : string;
  basic_cycles : float;
  (* (granularity, policy point) -> speedup over basic *)
  cells : ((Pragma.granularity * policy_point) * float) list;
  best_configs : (Pragma.granularity * (int * int)) list;
}

(* One independent simulation per task: the basic-dp reference, each
   fixed-policy point, and each candidate of the exhaustive sweep. *)
type task =
  | T_basic
  | T_point of Pragma.granularity * policy_point
  | T_cand of Pragma.granularity * (int * int)

(* Scenario for one fig-6 cell.  The reduced tree cap keeps the
   exhaustive sweep's worst configs (huge 1-1 grids full of per-block
   buffers) inside memory; it and the dataset choice travel as app
   extras. *)
let scenario ?policy ?scale ~dataset variant =
  Scenario.make ?policy ?scale ~app:"TD"
    ~extras:(Dpc_apps.Tree_common.extras ~max_nodes:40_000 ~dataset ())
    variant

let run_dataset ~verbose ?scale ~session ~dataset () :
    dataset_result =
  let dname = match dataset with `Dataset1 -> "dataset1" | `Dataset2 -> "dataset2" in
  let log fmt =
    Printf.ksprintf
      (fun s -> if verbose then Printf.eprintf "[fig6:%s] %s\n%!" dname s)
      fmt
  in
  let policy_of = function
    | Kc1 -> Cs.Kc 1
    | Kc16 -> Cs.Kc 16
    | Kc32 -> Cs.Kc 32
    | One_to_one -> Cs.One_to_one
    | Exhaustive -> assert false
  in
  let scenario_of = function
    | T_basic -> scenario ?scale ~dataset H.Basic
    | T_point (g, point) ->
      scenario ~policy:(policy_of point) ?scale ~dataset (H.Cons g)
    | T_cand (g, (b, t)) ->
      scenario ~policy:(Cs.Explicit (b, t)) ?scale ~dataset (H.Cons g)
  in
  let cfg_t = Scenario.resolve_cfg (scenario ?scale ~dataset H.Basic) in
  let tasks =
    T_basic
    :: List.concat_map
         (fun g ->
           List.concat_map
             (fun point ->
               match point with
               | Exhaustive ->
                 List.map (fun c -> T_cand (g, c)) (exhaustive_space cfg_t)
               | _ -> [ T_point (g, point) ])
             policy_points)
         granularities
  in
  let outcomes = Session.run_all session (List.map scenario_of tasks) in
  (* Exhaustive candidates too small for the workload fail their run;
     [run_all] captured that as [Error], which the sweep reduction below
     skips.  The reference and fixed-policy points must succeed —
     [Session.report] re-raises their failures. *)
  let reports =
    List.map
      (fun (o : Session.outcome) ->
        match o.Session.result with Ok r -> Some r | Error _ -> None)
      outcomes
  in
  let tagged = List.combine tasks reports in
  let tagged_outcomes = List.combine tasks outcomes in
  let basic = Session.report (List.assoc T_basic tagged_outcomes) in
  let speedup (r : M.report) = basic.M.cycles /. r.M.cycles in
  let cells = ref [] and best_configs = ref [] in
  List.iter
    (fun g ->
      let gname = Pragma.granularity_to_string g in
      List.iter
        (fun point ->
          match point with
          | Exhaustive ->
            (* Reduce the sweep's candidates in submission order: the
               first strictly-better candidate wins, exactly as the
               serial sweep did. *)
            let best = ref neg_infinity and best_cfg = ref (0, 0) in
            List.iter
              (fun (task, r) ->
                match (task, r) with
                | T_cand (g', c), Some r when g' = g ->
                  let s = speedup r in
                  if s > !best then begin
                    best := s;
                    best_cfg := c
                  end
                | _ -> ())
              tagged;
            log "%s exhaustive best %s at (%d,%d)" gname
              (Table.fmt_ratio !best) (fst !best_cfg) (snd !best_cfg);
            cells := ((g, Exhaustive), !best) :: !cells;
            best_configs := (g, !best_cfg) :: !best_configs
          | _ ->
            let r =
              Session.report (List.assoc (T_point (g, point)) tagged_outcomes)
            in
            cells := ((g, point), speedup r) :: !cells)
        policy_points)
    granularities;
  { dataset = dname; basic_cycles = basic.M.cycles; cells = !cells;
    best_configs = !best_configs }

type result = dataset_result list

(* One session for both datasets: the policy points and candidate
   configurations build identical programs on either dataset, so the
   second dataset's sweep runs entirely out of the compiled cache. *)
let run ~verbose ?scale ~session () : result =
  [
    run_dataset ~verbose ?scale ~session ~dataset:`Dataset1 ();
    run_dataset ~verbose ?scale ~session ~dataset:`Dataset2 ();
  ]

let to_tables (r : result) =
  List.map
    (fun d ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 6: kernel configurations on TD, %s (speedup over \
                basic-dp)"
               d.dataset)
          ~headers:[ "configuration"; "warp-level"; "block-level"; "grid-level" ]
          ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ] ()
      in
      List.iter
        (fun point ->
          Table.add_row t
            (point_name point
            :: List.map
                 (fun g -> Table.fmt_ratio (List.assoc (g, point) d.cells))
                 granularities))
        policy_points;
      t)
    r

(** Fraction of the exhaustive optimum achieved by the paper's default
    policy (KC_32/KC_16/KC_1 by granularity); paper reports ~97%. *)
let default_vs_exhaustive (r : result) =
  List.concat_map
    (fun d ->
      List.map
        (fun g ->
          let default_point =
            match g with
            | Pragma.Warp -> Kc32
            | Pragma.Block -> Kc16
            | Pragma.Grid -> Kc1
          in
          List.assoc (g, default_point) d.cells
          /. List.assoc (g, Exhaustive) d.cells)
        granularities)
    r
  |> Dpc_util.Stats.mean

let print ~verbose ?scale ~session () =
  let r = run ~verbose ?scale ~session () in
  List.iter Table.print (to_tables r);
  Printf.printf
    "Default KC policy achieves %.1f%% of the exhaustive-search optimum \
     (paper: ~97%%)\n"
    (100.0 *. default_vs_exhaustive r)
