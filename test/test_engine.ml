(* Engine layer: scenario codecs and identity, session execution,
   cross-run compiled-kernel cache, session input cache.

   The determinism tests are the cache's safety net: a cached run reuses
   the prepared program (and, per domain, the compiled closures) of an
   earlier run, and must still produce byte-identical metrics and traces
   to a fresh, cacheless run. *)

module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
module M = Dpc_sim.Metrics
module Pragma = Dpc_kir.Pragma
module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Kcache = Dpc_engine.Kcache
module Input_cache = Dpc_engine.Input_cache
module Export = Dpc_experiments.Export

let scenario_t =
  Alcotest.testable
    (fun fmt sc -> Format.pp_print_string fmt (Scenario.to_string sc))
    Scenario.equal

let report_str (r : M.report) = Json.to_string (M.to_json r)

(* --- codecs ---------------------------------------------------------------- *)

(* String and JSON codecs round-trip every (app x variant) cell of the
   evaluation matrix. *)
let codec_roundtrip_matrix () =
  List.iter
    (fun (e : R.entry) ->
      List.iter
        (fun v ->
          let sc = Scenario.make ~app:e.R.name v in
          Alcotest.check scenario_t
            (Scenario.label sc ^ " of_string/to_string")
            sc
            (Scenario.of_string (Scenario.to_string sc));
          Alcotest.check scenario_t
            (Scenario.label sc ^ " of_json/to_json")
            sc
            (Scenario.of_json (Scenario.to_json sc));
          Alcotest.(check string)
            (Scenario.label sc ^ " hash stable")
            (Scenario.hash sc)
            (Scenario.hash (Scenario.of_string (Scenario.key sc))))
        H.all_variants)
    R.all

(* A scenario with every optional field populated survives both codecs,
   including config overrides, an explicit policy and app extras. *)
let codec_roundtrip_rich () =
  let sc =
    Scenario.make ~policy:(Dpc.Config_select.Explicit (26, 128))
      ~alloc:Dpc_alloc.Allocator.Halloc ~cfg:"test-device"
      ~cfg_overrides:[ ("num_smx", 4); ("device_launch_latency", 2_000) ]
      ~scale:12 ~seed:99 ~scheduler:Dpc_sim.Timing.Fcfs
      ~interp:Dpc_sim.Interp.Reference
      ~extras:[ ("max_nodes", "40000"); ("dataset", "dataset2") ]
      ~app:"TD" (H.Cons Pragma.Block)
  in
  Alcotest.check scenario_t "of_string/to_string" sc
    (Scenario.of_string (Scenario.to_string sc));
  Alcotest.check scenario_t "of_json/to_json" sc
    (Scenario.of_json (Scenario.to_json sc))

(* Any scenario [make] accepts survives both codecs, the JSON one also
   through its text form: every app x variant, policy, allocator, preset,
   config override, scale and seed, scheduler, interpreter tier, and
   extras drawn from the app's own [extras_spec]. *)
let scenario_gen =
  let open QCheck.Gen in
  let policy =
    oneof
      [
        map (fun k -> Dpc.Config_select.Kc k) (int_range 1 64);
        return Dpc.Config_select.One_to_one;
        map2
          (fun b t -> Dpc.Config_select.Explicit (b, t))
          (int_range 1 65535) (int_range 1 1024);
      ]
  in
  let extra (key, kind) =
    opt
      (match kind with
      | H.Xint -> map (fun i -> (key, string_of_int i)) int
      | H.Xenum tokens -> map (fun tok -> (key, tok)) (oneofl tokens))
  in
  let* (e : R.entry) = oneofl R.all in
  let* variant = oneofl H.all_variants in
  let* policy = opt policy in
  let* alloc = oneofl Dpc_alloc.Allocator.[ Default; Halloc; Pool ] in
  let* cfg = oneofl Dpc_gpu.Config.preset_names in
  let* cfg_overrides =
    list_size (int_bound 4) (pair (oneofl Scenario.cfg_field_names) int)
  in
  let* scale = opt int in
  let* seed = opt int in
  let* scheduler = oneofl Dpc_sim.Timing.[ Processor_sharing; Fcfs ] in
  let* interp = opt (oneofl Dpc_sim.Interp.[ Bytecode; Reference ]) in
  let* extras = flatten_l (List.map extra e.R.extras_spec) in
  return
    (Scenario.make ?policy ~alloc ~cfg ~cfg_overrides ?scale ?seed
       ~scheduler ?interp ~extras:(List.filter_map Fun.id extras)
       ~app:e.R.name variant)

let prop_codecs_roundtrip =
  QCheck.Test.make ~count:500 ~name:"scenario codecs round-trip"
    (QCheck.make ~print:Scenario.to_string scenario_gen)
    (fun sc ->
      Scenario.equal sc (Scenario.of_string (Scenario.to_string sc))
      && Scenario.equal sc (Scenario.of_json (Scenario.to_json sc))
      && Scenario.equal sc
           (Scenario.of_json
              (Json.parse (Json.to_string (Scenario.to_json sc)))))

(* [make] canonicalizes: app casing, override/extra order — so structural
   equality coincides with key equality. *)
let canonical_identity () =
  let a =
    Scenario.make ~app:"sssp"
      ~cfg_overrides:[ ("num_smx", 4); ("issue_rate", 2) ]
      (H.Cons Pragma.Grid)
  in
  let b =
    Scenario.make ~app:"SSSP"
      ~cfg_overrides:[ ("issue_rate", 2); ("num_smx", 4) ]
      (H.Cons Pragma.Grid)
  in
  Alcotest.check scenario_t "field order canonicalized" a b;
  Alcotest.(check string) "keys equal" (Scenario.key a) (Scenario.key b);
  Alcotest.(check string) "hashes equal" (Scenario.hash a) (Scenario.hash b)

let rejects () =
  let inv name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  inv "unknown app" (fun () -> Scenario.make ~app:"nope" H.Basic);
  inv "unknown preset" (fun () ->
      Scenario.make ~app:"SSSP" ~cfg:"gtx480" H.Basic);
  inv "unknown cfg field" (fun () ->
      Scenario.make ~app:"SSSP" ~cfg_overrides:[ ("nope", 1) ] H.Basic);
  inv "KC_0 policy" (fun () ->
      Scenario.make ~app:"SSSP" ~policy:(Dpc.Config_select.Kc 0)
        (H.Cons Pragma.Grid));
  inv "zero-block policy" (fun () ->
      Scenario.make ~app:"SSSP" ~policy:(Dpc.Config_select.Explicit (0, 32))
        (H.Cons Pragma.Grid));
  inv "unknown key" (fun () ->
      Scenario.of_string "app=SSSP,variant=no-dp,bogus=1");
  inv "bad alloc" (fun () ->
      Scenario.of_string "app=SSSP,variant=no-dp,alloc=slab");
  inv "missing app" (fun () -> Scenario.of_string "variant=no-dp");
  inv "missing variant" (fun () -> Scenario.of_string "app=SSSP")

(* The scenario extras lint: unknown keys and malformed values are
   refused at construction (string and JSON codecs included) with a
   one-line actionable message naming the valid keys. *)
let extras_lint () =
  let msg name f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let assert_in name needle m =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S in %S" name needle m)
      true (contains m needle)
  in
  (* Unknown key on an app that declares extras: the valid keys are
     listed so the fix is in the message. *)
  let m =
    msg "unknown key" (fun () ->
        Scenario.make ~app:"TD" ~extras:[ ("max_node", "5") ] H.Basic)
  in
  assert_in "unknown key" "unknown extra \"max_node\"" m;
  assert_in "unknown key" "max_nodes" m;
  assert_in "unknown key" "dataset" m;
  (* Unknown key on an app that takes none says so. *)
  let m =
    msg "extras-free app" (fun () ->
        Scenario.make ~app:"SSSP" ~extras:[ ("bogus", "1") ] H.Basic)
  in
  assert_in "extras-free app" "this app takes none" m;
  (* Malformed values: a non-integer Xint, an out-of-set Xenum token. *)
  let m =
    msg "bad int" (fun () ->
        Scenario.make ~app:"TD" ~extras:[ ("max_nodes", "lots") ] H.Basic)
  in
  assert_in "bad int" "expected an integer" m;
  let m =
    msg "bad enum" (fun () ->
        Scenario.make ~app:"TH" ~extras:[ ("dataset", "dataset9") ] H.Basic)
  in
  assert_in "bad enum" "expected one of" m;
  assert_in "bad enum" "dataset1, dataset2" m;
  (* The codecs route through the same lint. *)
  let m =
    msg "string codec" (fun () ->
        Scenario.of_string "app=TD,variant=no-dp,x.max_nodes=lots")
  in
  assert_in "string codec" "expected an integer" m;
  (* And well-formed extras still pass. *)
  ignore
    (Scenario.make ~app:"TD"
       ~extras:[ ("max_nodes", "4000"); ("dataset", "dataset1") ]
       H.Basic
      : Scenario.t)

(* The sweep-file decoder takes bare lists, {"scenarios": ...} objects,
   and mixes of canonical strings and scenario objects. *)
let sweep_decode () =
  let sc = Scenario.make ~app:"SSSP" ~scale:300 (H.Cons Pragma.Grid) in
  let as_str = Json.String (Scenario.key sc) in
  let decoded =
    Scenario.sweep_of_json (Json.List [ as_str; Scenario.to_json sc ])
  in
  Alcotest.(check int) "two scenarios" 2 (List.length decoded);
  List.iter
    (fun d -> Alcotest.check scenario_t "sweep element" sc d)
    decoded;
  let wrapped =
    Scenario.sweep_of_json (Json.Obj [ ("scenarios", Json.List [ as_str ]) ])
  in
  Alcotest.(check int) "wrapped list" 1 (List.length wrapped)

(* --- sessions and the cache ------------------------------------------------ *)

let sssp_grid = Scenario.make ~app:"SSSP" ~scale:400 (H.Cons Pragma.Grid)

(* Same scenario twice in one session: the second run is a cache hit and
   still reports byte-identical metrics. *)
let cache_hit_deterministic () =
  let s = Session.create () in
  let r1 = Session.run s sssp_grid in
  let r2 = Session.run s sssp_grid in
  Alcotest.(check string) "metrics identical across hit" (report_str r1)
    (report_str r2);
  let stats = Session.cache_stats s in
  Alcotest.(check int) "one miss" 1 stats.Kcache.misses;
  Alcotest.(check int) "one hit" 1 stats.Kcache.hits

(* A cached session and a fresh cacheless session produce byte-identical
   metrics and Chrome traces for the same scenario. *)
let fresh_sessions_identical () =
  let capture () =
    let trace = ref "" in
    let inspect _sc dev =
      let num_smx = (Dpc_sim.Device.config dev).Dpc_gpu.Config.num_smx in
      trace :=
        Dpc_prof.Chrome_trace.to_string ~num_smx (Dpc_sim.Device.profile dev)
    in
    (trace, inspect)
  in
  let trace_a, inspect_a = capture () in
  let sa = Session.create ~inspect:inspect_a () in
  (* Warm the cache, then run the scenario we compare (a hit). *)
  let (_ : M.report) = Session.run sa sssp_grid in
  let ra = Session.run sa sssp_grid in
  let trace_b, inspect_b = capture () in
  let sb = Session.create ~cache:false ~inspect:inspect_b () in
  let rb = Session.run sb sssp_grid in
  Alcotest.(check string) "metrics identical across sessions"
    (report_str ra) (report_str rb);
  Alcotest.(check bool) "trace captured" true (String.length !trace_a > 0);
  Alcotest.(check string) "traces identical across sessions" !trace_a
    !trace_b

(* run_all: outcomes keep submission order, failures are captured without
   aborting siblings, and the cache counts one miss per program family. *)
let run_all_outcomes () =
  let ok1 = Scenario.make ~app:"SSSP" ~scale:300 ~seed:1 (H.Cons Pragma.Grid) in
  let ok2 = Scenario.make ~app:"SSSP" ~scale:300 ~seed:2 (H.Cons Pragma.Grid) in
  (* Bad extras and policies are refused eagerly at [make] (see
     [extras_lint] and [rejects]), so the runtime failure here is a block
     limit below the app's launch: constructible, but the device rejects
     the launch mid-run. *)
  let bad =
    Scenario.make ~app:"SSSP" ~scale:300
      ~cfg_overrides:[ ("max_threads_per_block", 64) ]
      (H.Cons Pragma.Grid)
  in
  let s = Session.create () in
  match Session.run_all s [ ok1; bad; ok2 ] with
  | [ o1; o_bad; o2 ] ->
    Alcotest.(check bool) "first ok" true (Result.is_ok o1.Session.result);
    Alcotest.(check bool) "third ok" true (Result.is_ok o2.Session.result);
    (match o_bad.Session.result with
    | Error (Dpc_sim.Runtime.Sim_error _) -> ()
    | Error e -> Alcotest.failf "unexpected error %s" (Printexc.to_string e)
    | Ok _ -> Alcotest.fail "launch past the block limit accepted");
    Alcotest.check scenario_t "outcome tags scenario" bad
      o_bad.Session.scenario
  | _ -> Alcotest.fail "outcome arity"

(* A mixed sweep through a parallel session: per-family misses, per-run
   hits, and the same reports as a serial cacheless sweep. *)
let parallel_sweep_matches_serial () =
  let scs =
    List.concat_map
      (fun scale ->
        List.map
          (fun seed ->
            Scenario.make ~app:"SSSP" ~scale ~seed (H.Cons Pragma.Grid))
          [ 1; 2 ])
      [ 300; 400 ]
    @ [ Scenario.make ~app:"SpMV" ~scale:200 (H.Cons Pragma.Block) ]
  in
  let par = Session.create ~jobs:2 () in
  let ser = Session.create ~cache:false () in
  let rp = List.map Session.report (Session.run_all par scs) in
  let rs = List.map Session.report (Session.run_all ser scs) in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "run %d identical" i)
        (report_str a) (report_str b))
    (List.combine rp rs);
  let stats = Session.cache_stats par in
  Alcotest.(check int) "two program families" 2 stats.Kcache.misses;
  Alcotest.(check int) "rest are hits" (List.length scs - 2)
    stats.Kcache.hits

(* The stealing scheduler at a different job count must be invisible in
   the results: outcomes keep submission order and every report is
   byte-identical to a serial, cacheless session's.  The sweep mixes
   apps and scales so the cost estimates genuinely differ. *)
let steal_sweep_matches_serial () =
  let scs =
    List.concat_map
      (fun scale ->
        List.map
          (fun seed ->
            Scenario.make ~app:"SSSP" ~scale ~seed (H.Cons Pragma.Grid))
          [ 1; 2 ])
      [ 300; 400 ]
    @ [
        Scenario.make ~app:"SpMV" ~scale:200 (H.Cons Pragma.Block);
        Scenario.make ~app:"GC" ~scale:8 (H.Cons Pragma.Warp);
      ]
  in
  let steal = Session.create ~jobs:3 ~sched:Dpc_util.Pool.Steal () in
  let ser = Session.create ~cache:false () in
  let op = Session.run_all steal scs in
  let os = Session.run_all ser scs in
  List.iteri
    (fun i (o, sc) ->
      Alcotest.check scenario_t
        (Printf.sprintf "outcome %d keeps submission order" i)
        sc o.Session.scenario)
    (List.combine op scs);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "run %d identical under stealing" i)
        (report_str (Session.report a))
        (report_str (Session.report b)))
    (List.combine op os);
  Alcotest.(check string) "session reports its scheduler" "steal"
    (Dpc_util.Pool.sched_to_string (Session.sched steal))

(* strict_check with jobs > 1: the strict finalize hook is domain-local,
   so it must be (and is) installed around each task inside the worker
   domains — a program built by a worker is vetted there.  The [inspect]
   hook runs inside the task, in the worker, so finalizing a broken
   kernel from it stands in for a worker-built bad program (every
   registry app is lint-clean).  Afterwards the submitting domain's hook
   must be back to the default. *)
let strict_check_parallel_workers () =
  let bad () =
    let open Dpc_kir.Build in
    kernel ~name:"strict_bad" ~params:[ p "n" ]
      [ if_then (tid <: v "n") [ sync ] ]
  in
  let inspect (sc : Scenario.t) _dev =
    if sc.Scenario.seed = Some 2 then Dpc_kir.Kernel.finalize (bad ())
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let scs =
    List.map
      (fun seed ->
        Scenario.make ~app:"SSSP" ~scale:300 ~seed (H.Cons Pragma.Grid))
      seeds
  in
  let s = Session.create ~strict_check:true ~jobs:2 ~inspect () in
  let outcomes = Session.run_all s scs in
  List.iter2
    (fun seed (o : Session.outcome) ->
      match o.Session.result with
      | Ok _ ->
        if seed = 2 then
          Alcotest.fail "bad kernel passed strict finalize in a worker"
      | Error (Dpc_check.Check.Check_error _) ->
        Alcotest.(check int) "only seed 2 flagged" 2 seed
      | Error e ->
        Alcotest.failf "seed %d: unexpected error %s" seed
          (Printexc.to_string e))
    seeds outcomes;
  (* The hook is per-task: after run_all the submitting domain is back to
     the permissive default, so the same kernel finalizes fine. *)
  Dpc_kir.Kernel.finalize (bad ())

(* A spec that leaves the tier open is priced as the session default
   tier, so a sweep mixing default-tier and explicit-tier specs seeds its
   stealing deques by what each spec will actually run. *)
let cost_follows_default_tier () =
  let explicit m = Scenario.make ~interp:m ~app:"SSSP" H.Basic in
  let open_tier = Scenario.make ~app:"SSSP" H.Basic in
  let default = Dpc_sim.Interp.default_mode () in
  Alcotest.(check (float 0.0))
    "default-tier cost = explicit default-tier cost"
    (Scenario.cost_estimate (explicit default))
    (Scenario.cost_estimate open_tier);
  (* with no DPC_INTERP override the session default is bytecode *)
  if Sys.getenv_opt "DPC_INTERP" = None then
    Alcotest.(check (float 0.0))
      "default-tier cost = explicit interp=bytecode cost"
      (Scenario.cost_estimate (explicit Dpc_sim.Interp.Bytecode))
      (Scenario.cost_estimate open_tier)

(* [compiled], the retired closure tier's tag, is no longer a tier
   name: the string key and the JSON form are refused with a one-line
   message naming the valid tiers. *)
let compiled_rejected () =
  let msg name f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let expect = "bad interp mode \"compiled\" (expected bytecode or ref)" in
  Alcotest.(check string) "string key" expect
    (msg "string key" (fun () ->
         Scenario.of_string
           "app=SSSP,variant=grid-level,scale=300,interp=compiled"));
  Alcotest.(check string) "JSON" expect
    (msg "JSON" (fun () ->
         Scenario.of_json
           (Json.Obj
              [ ("app", Json.String "SSSP");
                ("variant", Json.String "grid-level");
                ("interp", Json.String "compiled") ])));
  Alcotest.(check bool) "mode_of_string compiled" true
    (Dpc_sim.Interp.mode_of_string "compiled" = None)

(* --- the session input cache ---------------------------------------------- *)

(* Small scales per app (the apps suite's table): the build counts below
   depend on which runs share data, not on its size. *)
let small_scale = function
  | "SSSP" -> 700
  | "SpMV" -> 900
  | "PageRank" -> 600
  | "GC" -> 8
  | "BFS-Rec" -> 8
  | "TH" | "TD" -> 16
  | other -> invalid_arg other

(* Smaller still, for the tests that only count builds. *)
let tiny_scale = function
  | "SSSP" | "SpMV" | "PageRank" -> 200
  | "GC" | "BFS-Rec" -> 6
  | "TH" | "TD" -> 64
  | other -> invalid_arg other

let app_names = List.map (fun (e : R.entry) -> e.R.name) R.all

(* The evaluation suite's shape: every app at every variant, k20c. *)
let suite_pass ?(scale = small_scale) ?(cfg = "k20c") ?alloc () =
  List.concat_map
    (fun app ->
      List.map
        (fun v -> Scenario.make ~cfg ?alloc ~scale:(scale app) ~app v)
        H.all_variants)
    app_names

(* The sweep grid's shape: app x variant x allocator x preset, 210 runs
   that share one dataset per app. *)
let sweep_grid () =
  List.concat_map
    (fun alloc ->
      List.concat_map
        (fun cfg -> suite_pass ~scale:tiny_scale ~cfg ~alloc ())
        [ "k20c"; "milo832" ])
    Dpc_alloc.Allocator.[ Default; Halloc; Pool ]

let check_inputs what ~builds ~hits (st : Input_cache.stats) =
  Alcotest.(check int) (what ^ ": builds") builds st.Input_cache.builds;
  Alcotest.(check int) (what ^ ": hits") hits st.Input_cache.hits

(* One suite pass builds each app's inputs once; a second pass reuses
   all of them. *)
let input_cache_suite_counts () =
  let s = Session.create () in
  let scs = suite_pass () in
  Alcotest.(check int) "35 runs" 35 (List.length scs);
  ignore (Session.run_all s scs);
  check_inputs "first pass" ~builds:7 ~hits:28 (Session.input_stats s);
  let before = Session.input_stats s in
  ignore (Session.run_all s scs);
  let after = Session.input_stats s in
  Alcotest.(check int) "second pass: 0 builds" 0
    (after.Input_cache.builds - before.Input_cache.builds);
  Alcotest.(check int) "second pass: 35 hits" 35
    (after.Input_cache.hits - before.Input_cache.hits);
  Alcotest.(check int) "one entry per app" 7 after.Input_cache.entries

(* Exactly one build per key under two stealing workers, every time:
   workers asking for the same app's inputs at once wait for the one
   build. *)
let input_cache_sweep_counts () =
  let scs = sweep_grid () in
  Alcotest.(check int) "210 runs" 210 (List.length scs);
  for i = 1 to 3 do
    let s = Session.create ~jobs:2 ~sched:Dpc_util.Pool.Steal () in
    ignore (Session.run_all s scs);
    check_inputs (Printf.sprintf "sweep %d" i) ~builds:7 ~hits:203
      (Session.input_stats s)
  done

(* Every app x variant (plus one app on the deep memory model) exports
   byte-identical outcomes from a caching session, serial and stealing,
   and from a cacheless one; afterwards every cached input still equals
   a fresh build, so no run wrote to a shared input. *)
let input_cache_identical () =
  let scs =
    suite_pass ()
    @ List.map
        (fun v -> Scenario.make ~cfg:"k20c-deep" ~scale:900 ~app:"SpMV" v)
        H.all_variants
  in
  let exports s =
    List.map
      (fun o -> Json.to_string (Export.outcome_json o))
      (Session.run_all s scs)
  in
  let cached = Session.create () in
  let steal = Session.create ~jobs:2 ~sched:Dpc_util.Pool.Steal () in
  let fresh = exports (Session.create ~cache:false ()) in
  List.iter
    (fun (what, s) ->
      List.iter2
        (fun (sc, a) b ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s" what (Scenario.key sc)) a b)
        (List.combine scs fresh) (exports s);
      Alcotest.(check (list string)) (what ^ ": inputs unchanged") []
        (Session.changed_inputs s))
    [ ("cached", cached); ("steal", steal) ];
  Alcotest.(check bool) "inputs were reused" true
    ((Session.input_stats cached).Input_cache.hits > 0)

(* Fresh seeds never hit, and the cache keeps at most one entry per app,
   so a daemon serving such traffic stays bounded. *)
let input_cache_bounded () =
  let s = Session.create () in
  let apps = Array.of_list app_names in
  for i = 0 to 199 do
    let app = apps.(i mod Array.length apps) in
    let sc =
      Scenario.make ~scale:(tiny_scale app) ~seed:(1000 + i) ~app H.Flat
    in
    ignore (Session.run s sc)
  done;
  let st = Session.input_stats s in
  Alcotest.(check int) "no hits" 0 st.Input_cache.hits;
  Alcotest.(check int) "200 builds" 200 st.Input_cache.builds;
  Alcotest.(check bool) "at most one entry per app" true
    (st.Input_cache.entries <= 7)

(* --- every config field has a reader ---------------------------------- *)

(* Small scenarios, each with a base config whose report the rows below
   can move: DP launches and pending-pool overflow (SSSP basic-dp on
   [test-device], pool capacity 16), consolidated launches (SSSP
   grid-level), parent syncs and nesting (TH basic-dp), shared-memory
   banks and MSHRs (SpMV on [milo832]). *)
let reader_scenario name cfg_overrides =
  match name with
  | "sssp-basic" ->
    Scenario.make ~cfg:"test-device" ~cfg_overrides ~scale:200 ~app:"SSSP"
      H.Basic
  | "sssp-grid" ->
    Scenario.make ~cfg:"test-device" ~cfg_overrides ~scale:200 ~app:"SSSP"
      (H.Cons Pragma.Grid)
  | "th-basic" ->
    Scenario.make ~cfg:"test-device" ~cfg_overrides ~scale:64 ~app:"TH"
      H.Basic
  | "spmv-milo" ->
    Scenario.make ~cfg:"milo832" ~cfg_overrides ~scale:200 ~app:"SpMV"
      (H.Cons Pragma.Warp)
  | other -> invalid_arg other

(* (field, scenario, a value other than the preset's). *)
let field_readers =
  [
    ("num_smx", "sssp-grid", 1);
    ("warp_size", "sssp-grid", 16);
    ("max_warps_per_smx", "sssp-grid", 4);
    ("max_blocks_per_smx", "sssp-grid", 2);
    ("max_threads_per_block", "sssp-grid", 64);
    ("max_grid_blocks", "sssp-grid", 4);
    ("issue_rate", "sssp-grid", 1);
    ("max_concurrent_grids", "sssp-basic", 2);
    ("max_nesting_depth", "th-basic", 1);
    ("fixed_pool_capacity", "sssp-basic", 2);
    ("host_launch_latency", "sssp-grid", 100);
    ("device_launch_latency", "sssp-grid", 100);
    ("launch_issue_cycles", "sssp-grid", 10);
    ("launch_dram_transactions", "sssp-grid", 0);
    ("dispatch_interval", "sssp-basic", 10);
    ("virtual_dispatch_interval", "sssp-basic", 10);
    (* The default penalty hides behind the virtualized dispatch backlog;
       a large one outlasts it. *)
    ("virtual_pool_penalty", "sssp-basic", 100_000);
    ("virtual_pool_dram", "sssp-basic", 0);
    ("sync_swap_cycles", "th-basic", 10);
    ("sync_swap_dram", "th-basic", 0);
    ("block_start_cycles", "sssp-grid", 10);
    ("mem_issue_cycles", "sssp-grid", 7);
    ("dram_transaction_cycles", "sssp-grid", 3);
    ("l2_hit_cycles", "sssp-grid", 9);
    ("atomic_cycles", "sssp-grid", 3);
    ("mem_segment_bytes", "sssp-grid", 32);
    ("l2_segments", "sssp-grid", 4);
    ("shared_banks", "spmv-milo", 16);
    ("bank_replay_cycles", "spmv-milo", 7);
    ("mshr_per_warp", "spmv-milo", 4);
    ("mshr_retire_per_access", "spmv-milo", 2);
    ("mshr_stall_cycles", "spmv-milo", 9);
    ("issue_per_warp", "sssp-grid", 2);
  ]

(* A field that no phase reads is a setting nothing turns on: for every
   overridable field, one other value must change the report, or make
   the run raise where the base run completes.  The table covers
   [cfg_field_names] exactly, so a new field needs a row. *)
let cfg_fields_have_readers () =
  Alcotest.(check (list string))
    "one row per overridable field"
    (List.sort compare Scenario.cfg_field_names)
    (List.sort compare (List.map (fun (f, _, _) -> f) field_readers));
  let s = Session.create () in
  List.iter
    (fun (field, name, v) ->
      let base = report_str (Session.run s (reader_scenario name [])) in
      match Session.run s (reader_scenario name [ (field, v) ]) with
      | r ->
        if report_str r = base then
          Alcotest.failf "cfg.%s=%d leaves the %s report unchanged" field v
            name
      | exception _ -> ())
    field_readers

let suite =
  [
    Alcotest.test_case "codec roundtrip apps x variants" `Quick
      codec_roundtrip_matrix;
    Alcotest.test_case "codec roundtrip all fields" `Quick
      codec_roundtrip_rich;
    QCheck_alcotest.to_alcotest prop_codecs_roundtrip;
    Alcotest.test_case "canonical identity" `Quick canonical_identity;
    Alcotest.test_case "cost follows default tier" `Quick
      cost_follows_default_tier;
    Alcotest.test_case "interp=compiled rejected" `Quick
      compiled_rejected;
    Alcotest.test_case "codec rejects" `Quick rejects;
    Alcotest.test_case "extras lint" `Quick extras_lint;
    Alcotest.test_case "sweep decode" `Quick sweep_decode;
    Alcotest.test_case "cache hit deterministic" `Quick
      cache_hit_deterministic;
    Alcotest.test_case "fresh sessions identical" `Quick
      fresh_sessions_identical;
    Alcotest.test_case "run_all outcomes" `Quick run_all_outcomes;
    Alcotest.test_case "parallel sweep matches serial" `Quick
      parallel_sweep_matches_serial;
    Alcotest.test_case "steal sweep matches serial" `Quick
      steal_sweep_matches_serial;
    Alcotest.test_case "strict check inside workers" `Quick
      strict_check_parallel_workers;
    Alcotest.test_case "input cache suite counts" `Quick
      input_cache_suite_counts;
    Alcotest.test_case "input cache sweep counts" `Quick
      input_cache_sweep_counts;
    Alcotest.test_case "input cache identical" `Quick input_cache_identical;
    Alcotest.test_case "input cache bounded" `Quick input_cache_bounded;
    Alcotest.test_case "every config field has a reader" `Quick
      cfg_fields_have_readers;
  ]
