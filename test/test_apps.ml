(* Integration tests: every benchmark app, every variant, at reduced
   scale.  Each app run verifies its own results against the CPU
   reference and raises on any mismatch, so these tests assert both
   "runs to completion" and "is correct". *)

module H = Dpc_apps.Harness
module M = Dpc_sim.Metrics
module R = Dpc_apps.Registry
module Pragma = Dpc_kir.Pragma
module Scenario = Dpc_engine.Scenario
module Mem = Dpc_gpu.Memory

(* Small scales per app (see each app's scale semantics). *)
let small_scale = function
  | "SSSP" -> 700
  | "SpMV" -> 900
  | "PageRank" -> 600
  | "GC" -> 8  (* 2^8 nodes *)
  | "BFS-Rec" -> 8
  | "TH" | "TD" -> 16  (* shrink divisor *)
  | other -> invalid_arg other

(* Run [e] at its small scale the way every front end does: a scenario
   (device preset [preset], interpreter tier [interp]), lowered to a
   spec, through the registry's entry point. *)
let run ?preset ?interp ?alloc ?policy ?extras ?inspect (e : R.entry) v =
  Scenario.make ?cfg:preset ?interp ?alloc ?policy ?extras
    ~scale:(small_scale e.R.name) ~app:e.R.name v
  |> Scenario.to_spec ?inspect |> e.R.run_spec

let run_app_variant (e : R.entry) v () =
  let r = run e v in
  Alcotest.(check bool) "simulated time positive" true (r.M.cycles > 0.0);
  Alcotest.(check bool) "warp efficiency sane" true
    (r.M.warp_efficiency > 0.0 && r.M.warp_efficiency <= 1.0);
  Alcotest.(check bool) "occupancy sane" true
    (r.M.occupancy >= 0.0 && r.M.occupancy <= 1.0);
  match v with
  | H.Flat -> Alcotest.(check int) "flat has no device launches" 0 r.M.device_launches
  | H.Basic -> ()
  | H.Cons _ -> ()

let consolidation_reduces_launches (e : R.entry) () =
  let basic = run e H.Basic in
  let grid = run e (H.Cons Pragma.Grid) in
  Alcotest.(check bool)
    (e.R.name ^ ": grid-level launches far fewer kernels")
    true
    (grid.M.device_launches * 4 < basic.M.device_launches
    || basic.M.device_launches < 8);
  Alcotest.(check bool)
    (e.R.name ^ ": warp efficiency improves")
    true
    (grid.M.warp_efficiency >= basic.M.warp_efficiency -. 0.05)

let allocator_choice_runs (e : R.entry) () =
  (* Consolidated runs must be correct with every allocator. *)
  List.iter
    (fun kind ->
      ignore (run ~alloc:kind e (H.Cons Pragma.Block) : M.report))
    Dpc_alloc.Allocator.[ Default; Halloc; Pool ]

let policy_choice_runs (e : R.entry) () =
  List.iter
    (fun policy ->
      ignore (run ~policy e (H.Cons Pragma.Grid) : M.report))
    Dpc.Config_select.[ Kc 1; Kc 16; One_to_one ]

let basic_alloc_honored () =
  (* Regression: [Harness.prepare] used to drop the allocator on the
     Basic path, silently running the no-DP baseline on the default
     allocator. *)
  List.iter
    (fun v ->
      let seen = ref "" in
      let inspect dev =
        seen :=
          Dpc_alloc.Allocator.kind_to_string
            (Dpc_alloc.Allocator.kind (Dpc_sim.Device.allocator dev))
      in
      ignore
        (run ~alloc:Dpc_alloc.Allocator.Halloc ~inspect R.sssp v : M.report);
      Alcotest.(check string)
        (H.variant_to_string v ^ " allocator honored")
        "halloc" !seen)
    [ H.Basic; H.Cons Pragma.Grid ]

(* The tree apps' extras reach the dataset: each run completes (so it
   verified against the CPU reference on the tree the extra picked) and
   reports differently from the default tree. *)
let tree_extras_honored (e : R.entry) () =
  let v = H.Cons Pragma.Block in
  let default = run e v in
  List.iter
    (fun extras ->
      let r = run ~extras e v in
      let label =
        String.concat "," (List.map (fun (k, x) -> k ^ "=" ^ x) extras)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s differs from the default" e.R.name label)
        true
        (compare r default <> 0))
    [ [ ("dataset", "dataset2") ]; [ ("max_nodes", "300") ] ]

let variant_cases (e : R.entry) =
  List.map
    (fun v ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" e.R.name (H.variant_to_string v))
        `Slow (run_app_variant e v))
    H.all_variants

(* Exact storage counters for TH block-level at scale 32: the logical
   words of every device buffer against the words that ever got storage.
   Most consolidation buffers (names [kernel#mSITE@gGRID]) are never
   written, so they hold no storage. *)
let untouched_buffers_hold_no_storage () =
  let bufs = ref [] in
  let inspect dev =
    let mem = Dpc_sim.Device.memory dev in
    bufs := List.init (Mem.buf_count mem) (Mem.get_buf mem)
  in
  ignore
    (Scenario.make ~scale:32 ~app:"TH" (H.Cons Pragma.Block)
     |> Scenario.to_spec ~inspect |> R.tree_height.R.run_spec
      : M.report);
  let resident (b : Mem.buf) =
    match b.Mem.data with Mem.I a -> Array.length a | Mem.F a -> Array.length a
  in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 in
  let heap = List.filter (fun b -> String.contains b.Mem.name '#') !bufs in
  Alcotest.(check int) "logical words" 293_585 (sum Mem.buf_length !bufs);
  Alcotest.(check int) "resident words" 21_068 (sum resident !bufs);
  Alcotest.(check int) "device-heap buffers" 286 (List.length heap);
  Alcotest.(check int) "device-heap buffers with storage" 20
    (List.length (List.filter (fun b -> resident b > 0) heap))

let suite =
  List.concat_map variant_cases R.all
  @ List.map
      (fun e ->
        Alcotest.test_case (e.R.name ^ " launch reduction") `Slow
          (consolidation_reduces_launches e))
      R.all
  @ [
      Alcotest.test_case "SSSP all allocators" `Slow
        (allocator_choice_runs R.sssp);
      Alcotest.test_case "TD all allocators" `Slow
        (allocator_choice_runs R.tree_descendants);
      Alcotest.test_case "SSSP all policies" `Slow (policy_choice_runs R.sssp);
      Alcotest.test_case "TD all policies" `Slow
        (policy_choice_runs R.tree_descendants);
      Alcotest.test_case "basic variant honors allocator" `Slow
        basic_alloc_honored;
      Alcotest.test_case "untouched buffers hold no storage" `Quick
        untouched_buffers_hold_no_storage;
      Alcotest.test_case "TH extras honored" `Slow
        (tree_extras_honored R.tree_height);
      Alcotest.test_case "TD extras honored" `Slow
        (tree_extras_honored R.tree_descendants);
    ]
