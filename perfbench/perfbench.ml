(* The repository benchmark: three workloads (suite, serve, sweep) with
   end-to-end metrics from an untraced run and per-layer attribution from
   a separate traced run.  Every timing is taken from outside the
   libraries, around calls into their public functions; the program
   itself is not instrumented.  See perfbench/README.md for the metric
   definitions and the reasons behind each workload. *)

module J = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Kcache = Dpc_engine.Kcache
module H = Dpc_apps.Harness
module Registry = Dpc_apps.Registry
module Metrics = Dpc_sim.Metrics
module Device = Dpc_sim.Device
module Interp = Dpc_sim.Interp
module Trace = Dpc_sim.Trace
module Client = Dpc_serve.Client
module Export = Dpc_experiments.Export
module Pool = Dpc_util.Pool

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fail_usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* --- statistics ----------------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

(* --- metrics and the result line ----------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

(* Output checks.  [failed] counts scenarios that raised (the known
   Timing.Stuck cases among them); [incorrect] counts outputs that
   disagree with the CPU reference or with a committed expectation —
   those make the run incorrect.  Neither aborts the run. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  mutable checked : int;  (** outputs compared against an expectation *)
  failures : (string, int) Hashtbl.t;  (** failure message -> count *)
}

let tally () =
  { attempted = 0; failed = 0; incorrect = 0; checked = 0;
    failures = Hashtbl.create 8 }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let incorrect t fmt =
  Printf.ksprintf
    (fun s ->
      t.incorrect <- t.incorrect + 1;
      if t.incorrect <= 20 then prerr_endline ("perfbench: MISMATCH " ^ s))
    fmt

let record_failure t ~key msg =
  t.failed <- t.failed + 1;
  let short =
    match String.index_opt msg '(' with
    | Some i -> String.sub msg 0 i
    | None -> msg
  in
  Hashtbl.replace t.failures short
    (1 + Option.value (Hashtbl.find_opt t.failures short) ~default:0);
  (* A wrong answer is worse than a crash: the run is incorrect. *)
  if contains ~sub:"Verification_failed" msg then
    incorrect t "%s: %s" key msg

let emit ~tally ~header metrics =
  Printf.printf "%s\n" header;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %16.6f %-9s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  Printf.printf "  outputs: attempted %d, failed %d, incorrect %d, checked \
                 against expectations %d\n"
    tally.attempted tally.failed tally.incorrect tally.checked;
  Hashtbl.iter
    (fun msg n -> Printf.printf "  failure x%d: %s\n" n msg)
    tally.failures;
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not a number" m.name))
    metrics;
  let line =
    J.Obj
      [
        ("correct", J.Bool (tally.incorrect = 0));
        ("attempted", J.Int (max 1 tally.attempted));
        ("failed", J.Int tally.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   J.Obj
                     [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]
                 ))
               metrics) );
      ]
  in
  print_endline (J.to_string line)

(* --- host facts ------------------------------------------------------------ *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> loop ()
        in
        loop ())

let nproc = Domain.recommended_domain_count ()

(* --- output identity --------------------------------------------------------- *)

(* Reports are compared through the JSON printer (a parse round trip on
   both sides, so Int/Float spellings cannot differ). *)
let report_string r = J.to_string (J.parse (J.to_string (Metrics.to_json r)))
let json_string j = J.to_string (J.parse (J.to_string j))
let md5 s = Digest.to_hex (Digest.string s)

(* --- workloads: scenario generation ----------------------------------------- *)

let apps = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all
let variants = H.all_variants

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* serve: small scale by dataset family. *)
let serve_scale app =
  match (Registry.find app).Registry.dataset with
  | "citeseer_like" -> 200
  | "kron_like" -> 6
  | _ -> 32

let serve_presets = [ "k20c"; "k20c-deep"; "milo832" ]

(* Requests come in rounds: each round visits every app x variant x
   preset combination once, in a seeded order, each with a fresh dataset
   seed.  The mix is then the same for every seed and only the datasets
   and the order differ. *)
let serve_stream ~seed =
  let st = Random.State.make [| seed; 0x5e27e |] in
  let combos =
    Array.of_list
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun v -> List.map (fun cfg -> (app, v, cfg)) serve_presets)
             variants)
         apps)
  in
  let round = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !round then begin
      round := Array.copy combos;
      shuffle st !round;
      pos := 0
    end;
    let app, v, cfg = !round.(!pos) in
    incr pos;
    Scenario.make ~cfg ~scale:(serve_scale app)
      ~seed:(Random.State.bits st) ~app v

(* sweep: medium scales, sized so one scenario takes tens of ms to a
   few hundred ms on the compiled tier. *)
let sweep_scale = function
  | "SSSP" -> 1000
  | "SpMV" -> 2000
  | "PageRank" -> 1000
  | "GC" -> 8
  | "BFS-Rec" -> 11
  | _ -> 12 (* TH, TD: tree shrink divisor *)

let sweep_presets = [ "k20c"; "milo832" ]
let sweep_allocs = Dpc_alloc.Allocator.[ Default; Halloc; Pool ]

(* The full app x variant x allocator x preset grid (210 scenarios) on
   each app's default dataset, so the 30 scenarios of an app share one
   dataset and every seed runs the same work; the seed picks the
   submission order, which is what the pool's scheduling sees.  (Random
   datasets would make the work itself vary by seed: the tree apps'
   datasets are branching processes whose size varies with the seed.) *)
let sweep_scenarios ~seed =
  let st = Random.State.make [| seed; 0x5eeb |] in
  let a =
    Array.of_list
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun v ->
               List.concat_map
                 (fun alloc ->
                   List.map
                     (fun cfg ->
                       Scenario.make ~cfg ~alloc ~scale:(sweep_scale app) ~app
                         v)
                     sweep_presets)
                 sweep_allocs)
             variants)
         apps)
  in
  shuffle st a;
  Array.to_list a

(* --- expectations ------------------------------------------------------------ *)

(* The committed serve expectation is for this seed; other seeds are
   checked by the CPU reference inside every scenario and by the
   differential check against an in-process Session.  The sweep runs the
   same scenarios for every seed, so its expectation always applies. *)
let expect_seed = 1

let expect_path ~dir workload = Filename.concat dir (workload ^ ".json")

let load_expect ~dir workload : (string, string) Hashtbl.t =
  let path = expect_path ~dir workload in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let tbl = Hashtbl.create 256 in
  (match J.member "digests" (J.parse s) with
  | Some (J.Obj kvs) ->
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (J.to_str v)) kvs
  | _ -> failwith ("malformed expectation file " ^ path));
  tbl

let write_expect ~dir workload ~seed entries =
  let path = expect_path ~dir workload in
  let j =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("digests", J.Obj (List.map (fun (k, v) -> (k, J.String v)) entries));
      ]
  in
  let oc = open_out_bin path in
  output_string oc (J.to_string_pretty j);
  close_out oc;
  Printf.printf "wrote %d expectations to %s\n" (List.length entries) path

(* A completed output must match its expectation; an expected failure
   that now completes is not a mismatch (the CPU reference already
   vetted it), and an unexpected failure is counted as failed. *)
let check_expect tally tbl ~key ~got =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some want ->
    tally.checked <- tally.checked + 1;
    if want <> "error" && got <> "error" && want <> got then
      incorrect tally "%s: digest %s, expected %s" key got want

(* --- traced execution -------------------------------------------------------- *)

(* One scenario's boundary timestamps, taken by the wrapped preparer and
   the inspect hook. *)
type span = {
  mutable start : float;
  mutable first_prep : float;  (** nan until the preparer is first called *)
  mutable prep_s : float;
  mutable prep_end : float;
  mutable misses : float list;  (** durations of cold preparer calls *)
  mutable inspect_at : float;  (** nan until the inspect hook runs *)
  mutable replay_s : float;
  mutable issue : int;
  mutable grids : int;
  mutable segments : int;
}

let fresh_span () =
  { start = nan; first_prep = nan; prep_s = 0.; prep_end = nan; misses = [];
    inspect_at = nan; replay_s = 0.; issue = 0; grids = 0; segments = 0 }

let wrap_preparer (base : H.preparer) sp : H.preparer =
 fun ~key ~interp ~cfgkey ~build ->
  let t = now () in
  if Float.is_nan sp.first_prep then sp.first_prep <- t;
  let cold = ref false in
  let r =
    base ~key ~interp ~cfgkey ~build:(fun () ->
        cold := true;
        build ())
  in
  let t' = now () in
  sp.prep_s <- sp.prep_s +. (t' -. t);
  if !cold then sp.misses <- (t' -. t) :: sp.misses;
  sp.prep_end <- t';
  r

(* Work counts come first: a scenario whose replay raises (the known
   Timing.Stuck cases) is counted the same way every time.
   Device.report caches its result, so the app's own call after this
   hook costs nothing and the replay is timed exactly once. *)
let inspect sp dev =
  let t = now () in
  if Float.is_nan sp.inspect_at then sp.inspect_at <- t;
  let gs = Interp.grids (Device.session dev) in
  sp.grids <- sp.grids + Array.length gs;
  Array.iter
    (fun (g : Trace.grid_exec) ->
      Array.iter
        (fun (b : Trace.block_trace) ->
          sp.segments <- sp.segments + Array.length b.Trace.segments;
          Array.iter
            (fun (s : Trace.segment) ->
              sp.issue <- sp.issue + s.Trace.issue_cycles)
            b.Trace.segments)
        g.Trace.blocks)
    gs;
  let t = now () in
  Fun.protect
    ~finally:(fun () -> sp.replay_s <- sp.replay_s +. (now () -. t))
    (fun () -> ignore (Device.report dev))

type traced = {
  t_scenario : Scenario.t;
  t_result : (Metrics.report, exn) result;
  t_wall : float;
  t_span : span;
  t_encode_s : float;
  t_alloc_words : float;
}

let alloc_words () =
  let mi, pro, ma = Gc.counters () in
  mi +. ma -. pro

(* The same steps as Session.run_outcome (registry lookup, to_spec with
   the cache's preparer, run_spec), with the preparer wrapped and an
   inspect hook installed, followed by the export encoding dpcd and
   [experiments --json] apply to every outcome. *)
let run_traced kc (sc : Scenario.t) =
  let sp = fresh_span () in
  let a0 = alloc_words () in
  let t0 = now () in
  sp.start <- t0;
  let spec =
    Scenario.to_spec ~preparer:(wrap_preparer (Kcache.preparer kc) sp)
      ~inspect:(inspect sp) sc
  in
  let result =
    try Ok ((Registry.find sc.Scenario.app).Registry.run_spec spec)
    with e -> Error e
  in
  let t1 = now () in
  ignore
    (Sys.opaque_identity
       (J.to_string
          (Export.outcome_json
             { Session.scenario = sc; result; elapsed_s = t1 -. t0 })));
  let t2 = now () in
  { t_scenario = sc; t_result = result; t_wall = t1 -. t0; t_span = sp;
    t_encode_s = t2 -. t1; t_alloc_words = alloc_words () -. a0 }

(* Per-layer metrics over a fixed set of traced scenarios: times are
   means per scenario, work counters exact totals over the set. *)
let layer_metrics (ts : traced list) =
  let n = float_of_int (max 1 (List.length ts)) in
  let per f = sum (List.map f ts) /. n in
  let count f = float_of_int (List.fold_left (fun a t -> a + f t.t_span) 0 ts) in
  let gap a b = if Float.is_nan a || Float.is_nan b then 0. else b -. a in
  let exec_total =
    sum (List.map (fun t -> gap t.t_span.prep_end t.t_span.inspect_at) ts)
  in
  let replay_total = sum (List.map (fun t -> t.t_span.replay_s) ts) in
  let issue = count (fun s -> s.issue) and segs = count (fun s -> s.segments) in
  let misses = List.concat_map (fun t -> t.t_span.misses) ts in
  let ratio a b = if b = 0. then 0. else a /. b in
  [
    metric "graph.dataset_s" "s"
      (per (fun t -> gap t.t_span.start t.t_span.first_prep))
      ~note:"scenario start to first preparer call, mean per scenario";
    metric "engine.prepare_s" "s"
      (per (fun t -> t.t_span.prep_s))
      ~note:"preparer calls, mean per scenario";
    metric "engine.prepare_miss_ms" "ms"
      (match misses with [] -> 0. | _ -> 1000. *. median misses)
      ~note:(Printf.sprintf "median of %d cold preparations" (List.length misses));
    metric "sim.exec_s" "s" (exec_total /. n)
      ~note:"preparer return to inspect hook, mean per scenario";
    metric "sim.warp_issue_cycles" "count" issue ~note:"exact total";
    metric "sim.grids" "count" (count (fun s -> s.grids)) ~note:"exact total";
    metric "sim.exec_ns_per_issue_cycle" "ns" (ratio (exec_total *. 1e9) issue);
    metric "timing.replay_s" "s" (replay_total /. n)
      ~note:"Device.report, mean per scenario";
    metric "timing.segments" "count" segs ~note:"exact total";
    metric "timing.ns_per_segment" "ns" (ratio (replay_total *. 1e9) segs);
    metric "export.encode_s" "s" (per (fun t -> t.t_encode_s))
      ~note:"Export.outcome_json + Json.to_string, mean per scenario";
    metric "host.alloc_mb" "MB"
      (per (fun t -> t.t_alloc_words *. 8. /. 1048576.))
      ~note:"allocated per scenario";
  ]

(* The metrics every workload's traced run adds beside the layer ones.
   [serve_ms] is [None] where no daemon is involved (reported as 0). *)
let run_metrics ~kcache:(hits, misses, disk_writes) ?serve_ms ~busy ~steals
    ~gcs:(mi, ma) ~n ~overhead ?(rss_pid = "self") () =
  let n = float_of_int (max 1 n) in
  let server, transport = Option.value serve_ms ~default:(0., 0.) in
  let daemon note = if serve_ms = None then "n/a: no daemon" else note in
  [
    metric "engine.kcache_hits" "count" (float_of_int hits);
    metric "engine.kcache_misses" "count" (float_of_int misses);
    metric "engine.disk_writes" "count" (float_of_int disk_writes);
    metric "serve.server_ms" "ms" server ~note:(daemon "median done.elapsed_s");
    metric "serve.transport_ms" "ms" transport
      ~note:(daemon "median round trip minus done.elapsed_s");
    metric "pool.busy_frac" "fraction" busy
      ~note:"sum of outcome elapsed_s / (jobs x wall)";
    metric "pool.steals" "count" (float_of_int steals);
    metric "host.minor_gcs" "count" (float_of_int mi /. n) ~note:"per scenario";
    metric "host.major_gcs" "count" (float_of_int ma /. n) ~note:"per scenario";
    metric "host.peak_rss_mb" "MB" (vm_hwm_mb rss_pid)
      ~note:(if serve_ms = None then "VmHWM of this process" else "VmHWM of dpcd");
    metric "trace.overhead_frac" "fraction" overhead
      ~note:"traced / untraced wall of the same scenarios, minus 1";
  ]

(* Untraced and traced executions of one scenario must agree exactly
   (tracing must not perturb results, and a second execution must
   repeat the first). *)
let same_result tally ~key a b =
  match (a, b) with
  | Ok ra, Ok rb ->
    if report_string ra <> report_string rb then
      incorrect tally "%s: traced and untraced reports differ" key
  | Error ea, Error eb ->
    if Printexc.to_string ea <> Printexc.to_string eb then
      incorrect tally "%s: traced and untraced failures differ" key
  | _ -> incorrect tally "%s: traced and untraced outcomes differ" key

let digest_of_result = function
  | Ok r -> md5 (report_string r)
  | Error _ -> "error"

let note_result tally ~key = function
  | Ok _ -> ()
  | Error e -> record_failure tally ~key (Printexc.to_string e)

(* --- temporary directory and child processes -------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Scratch space lives inside the working directory (the benchmark reads
   and writes nowhere else); socket paths stay relative, so a deep
   checkout cannot exceed the Unix-socket path limit. *)
let scratch_dir =
  lazy
    (let root = ".perfbench-run" in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let d = Filename.concat root (string_of_int (Unix.getpid ())) in
     rm_rf d;
     Unix.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     d)

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

type daemon = { pid : int; sock : string; ready_s : float }

(* Spawn dpcd with its own fresh cache directory and poll it in 0.5 ms
   steps until it answers a ping; [ready_s] is spawn-to-pong. *)
let spawn_dpcd ~dpcd i =
  let dir = Lazy.force scratch_dir in
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" i) in
  let cache = Filename.concat dir (Printf.sprintf "cache%d" i) in
  let t0 = now () in
  let pid =
    Unix.create_process dpcd
      [| dpcd; "--socket"; sock; "--cache-dir"; cache; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  let rec poll () =
    match Client.with_connection sock Client.ping with
    | Ok () -> now () -. t0
    | Error msg -> failwith ("dpcd ping: " ^ msg)
    | exception Unix.Unix_error _ ->
      if now () -. t0 > 30. then failwith "dpcd did not come up within 30 s";
      Unix.sleepf 0.0005;
      poll ()
  in
  let ready_s = poll () in
  { pid; sock; ready_s }

let stop_dpcd d =
  (match Client.with_connection d.sock Client.shutdown with
  | Ok () -> ()
  | Error _ | (exception _) -> (
    try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap d.pid

let stats_int j path =
  List.fold_left
    (fun j k ->
      match J.member k j with Some v -> v | None -> failwith ("stats: " ^ k))
    j path
  |> J.to_int

(* --- cold set-up --------------------------------------------------------------- *)

exception Prepared

(* Fresh set-ups: each creates the workload's Session, then runs the
   cold preparation of every distinct program the workload runs on a
   fresh program cache.  A discovery pass first runs every scenario up to
   its preparer call (abandoning it there) and keeps the arguments of
   each call that built a program; each set-up then replays those calls
   through [Kcache.preparer], so it times exactly Session creation plus
   the cold builds, without the dataset generation that precedes them.
   Returns a function taking one set-up sample, and the number of
   programs. *)
let setup_sampler ~create scs =
  let calls = ref [] in
  let kc = Kcache.create () in
  List.iter
    (fun (sc : Scenario.t) ->
      let preparer ~key ~interp ~cfgkey ~build =
        ignore
          (Kcache.preparer kc ~key ~interp ~cfgkey ~build:(fun () ->
               calls := (key, interp, cfgkey, build) :: !calls;
               build ()));
        raise Prepared
      in
      try
        ignore
          ((Registry.find sc.Scenario.app).Registry.run_spec
             (Scenario.to_spec ~preparer sc))
      with Prepared -> ())
    scs;
  let calls = List.rev !calls in
  (* A fresh process starts with a clean heap: collect earlier garbage
     outside the timed part. *)
  let sample () =
    Gc.full_major ();
    let t0 = now () in
    ignore (Sys.opaque_identity (create ()));
    let kc = Kcache.create () in
    List.iter
      (fun (key, interp, cfgkey, build) ->
        ignore (Kcache.preparer kc ~key ~interp ~cfgkey ~build))
      calls;
    now () -. t0
  in
  (sample, List.length calls)

(* Set-up samples are taken in groups spread over the run (before the
   timed part and between its passes, batches or thirds), outside the
   timed part: host speed drifts over tens of seconds, and one burst of
   samples would only see one moment of it. *)
let setup_group ~small samples sample =
  for _ = 1 to if small then 2 else 10 do
    samples := sample () :: !samples
  done

let setup_metric samples ~what =
  metric "setup_s" "s" (median samples)
    ~note:(Printf.sprintf "median of %d fresh set-ups: %s" (List.length samples) what)

let latency_metrics lats =
  let n = List.length lats in
  let note = Printf.sprintf "n=%d" n in
  [
    metric "latency_p50_ms" "ms" (1000. *. median lats) ~note;
    metric "latency_p99_ms" "ms" (1000. *. quantile 0.99 lats) ~note;
  ]

(* --- suite ----------------------------------------------------------------------- *)

let suite_key (sc : Scenario.t) =
  sc.Scenario.app ^ "/" ^ H.variant_to_string sc.Scenario.variant

(* ci/experiments_baseline.json pins the 35 suite reports. *)
let load_suite_baseline path =
  let ic = open_in_bin path in
  let j = J.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let tbl = Hashtbl.create 64 in
  let get k j = Option.get (J.member k j) in
  List.iter
    (fun a ->
      let app = J.to_str (get "app" a) in
      List.iter
        (fun v ->
          Hashtbl.replace tbl
            (app ^ "/" ^ J.to_str (get "variant" v))
            (json_string (get "report" v)))
        (J.to_list (get "variants" a)))
    (J.to_list (get "apps" j));
  tbl

let check_suite tally baseline sc result =
  let key = suite_key sc in
  note_result tally ~key result;
  match (result, Hashtbl.find_opt baseline key) with
  | Ok r, Some want ->
    tally.checked <- tally.checked + 1;
    if report_string r <> want then
      incorrect tally "%s: report differs from the committed baseline" key
  | Ok _, None -> incorrect tally "%s: no baseline entry" key
  | Error _, _ -> ()

(* --- options ---------------------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the benchmark's self-test *)
  write_expect : bool;
  dpcd : string;
}

let expect_dir = "perfbench/expect"
let suite_baseline = "ci/experiments_baseline.json"

(* --- suite --------------------------------------------------------------------------- *)

(* The paper's 35-run evaluation: default scales and seeds, k20c. *)
let suite_list o =
  let all = Dpc_experiments.Suite.scenarios () in
  if o.small then
    List.filter
      (fun (sc : Scenario.t) -> List.mem sc.Scenario.app [ "BFS-Rec"; "TH" ])
      all
  else all

(* Serial passes over the suite in one Session: at least two, and until
   [seconds] of timed runs have passed.  Throughput is the suite size
   over the sum of per-scenario median times. *)
let suite_run o tally =
  let scs = suite_list o in
  let baseline = load_suite_baseline suite_baseline in
  let create () = Session.create () in
  let sample, programs = setup_sampler ~create scs in
  let setups = ref [] in
  setup_group ~small:o.small setups sample;
  let sess = create () in
  let arr = Array.of_list scs in
  let n = Array.length arr in
  let samples = Array.make n [] and runs = ref 0 and timed = ref 0. in
  while !runs < 2 * n || !timed < o.seconds do
    let k = !runs mod n in
    let t = now () in
    let out = Session.run_outcome sess arr.(k) in
    let dt = now () -. t in
    timed := !timed +. dt;
    tally.attempted <- tally.attempted + 1;
    check_suite tally baseline arr.(k) out.Session.result;
    samples.(k) <- dt :: samples.(k);
    incr runs;
    if !runs mod n = 0 then setup_group ~small:o.small setups sample
  done;
  (* Each scenario counts once, however many times it ran. *)
  let medians = Array.to_list (Array.map median samples) in
  let pass_s = sum medians in
  [
    metric "scenarios_per_s" "1/s" (float_of_int n /. pass_s)
      ~note:
        (Printf.sprintf "%d scenarios / sum of per-scenario medians, %d runs"
           n !runs);
  ]
  @ latency_metrics medians
  @ [
      setup_metric !setups
        ~what:
          (Printf.sprintf "Session.create + cold preparation of %d programs"
             programs);
    ]

let minor () = (Gc.quick_stat ()).Gc.minor_collections
let major () = (Gc.quick_stat ()).Gc.major_collections

(* Each scenario runs untraced through the Session and traced through
   the instrumented path, back to back, so host drift affects both alike
   and the overhead is their difference.  The order alternates from one
   scenario to the next (whichever runs second finds the host warmer),
   and each execution starts from a collected heap, so neither inherits
   the other's garbage. *)
let traced_serial ?(dpcd = fun _ -> None) tally scs ~check =
  let sess = Session.create () and kc = Kcache.create () in
  let un_wall = ref 0. and busy = ref 0. and gcs = ref (0, 0) in
  let untraced sc =
    Gc.full_major ();
    let t = now () in
    let out = Session.run_outcome sess sc in
    un_wall := !un_wall +. (now () -. t);
    busy := !busy +. out.Session.elapsed_s;
    out
  in
  let traced sc =
    Gc.full_major ();
    let m0 = minor () and j0 = major () in
    let tr = run_traced kc sc in
    let mi, ma = !gcs in
    gcs := (mi + minor () - m0, ma + major () - j0);
    tr
  in
  let ts =
    List.mapi
      (fun i sc ->
        let key = Scenario.key sc in
        let served = dpcd sc in
        let out, tr =
          if i mod 2 = 0 then
            let out = untraced sc in
            (out, traced sc)
          else
            let tr = traced sc in
            (untraced sc, tr)
        in
        tally.attempted <- tally.attempted + 1;
        check sc out.Session.result;
        same_result tally ~key out.Session.result tr.t_result;
        Option.iter
          (fun d ->
            tally.checked <- tally.checked + 1;
            if d <> digest_of_result tr.t_result then
              incorrect tally "%s: served and in-process reports differ" key)
          served;
        tr)
      scs
  in
  let traced_wall = sum (List.map (fun t -> t.t_wall) ts) in
  (ts, Kcache.stats kc, !busy /. !un_wall, !gcs, traced_wall /. !un_wall -. 1.)

let suite_trace o tally =
  let scs = suite_list o in
  let baseline = load_suite_baseline suite_baseline in
  let ts, st, busy, gcs, overhead =
    traced_serial tally scs ~check:(check_suite tally baseline)
  in
  layer_metrics ts
  @ run_metrics
      ~kcache:(st.Kcache.hits, st.Kcache.misses, st.Kcache.disk_writes)
      ~busy ~steals:0 ~gcs ~n:(List.length ts) ~overhead ()

(* --- sweep ------------------------------------------------------------------------------ *)

let sweep_list o =
  let all = sweep_scenarios ~seed:o.seed in
  if o.small then List.filteri (fun i _ -> i < 24) all else all

let sweep_session () = Session.create ~jobs:nproc ~sched:Pool.Steal ()

let load_expect_for o workload =
  if workload = "sweep" || o.seed = expect_seed then
    Some (load_expect ~dir:expect_dir workload)
  else None

(* Outcomes of one sweep batch: failures counted, reports checked against
   the committed expectation (pinned seed) and against the first batch
   (every seed). *)
let check_sweep tally expect first outs =
  List.iter
    (fun (out : Session.outcome) ->
      let key = Scenario.key out.Session.scenario in
      tally.attempted <- tally.attempted + 1;
      note_result tally ~key out.Session.result;
      let d = digest_of_result out.Session.result in
      (match Hashtbl.find_opt first key with
      | None -> Hashtbl.replace first key d
      | Some d0 ->
        if d0 <> d then incorrect tally "%s: differs between batches" key);
      Option.iter (fun tbl -> check_expect tally tbl ~key ~got:d) expect)
    outs

(* Whole Session.run_all batches of the fixed list on one Session, at
   least three, and no batch that would end past [seconds] of batch time;
   throughput is the median over batches, latency the per-scenario
   median over batches. *)
let sweep_run o tally =
  let scs = sweep_list o in
  let n = List.length scs in
  let expect = load_expect_for o "sweep" in
  let sample, programs = setup_sampler ~create:sweep_session scs in
  let setups = ref [] in
  setup_group ~small:o.small setups sample;
  let sess = sweep_session () in
  let first = Hashtbl.create 256 in
  let walls = ref [] and lats = Hashtbl.create 256 in
  let continue () =
    List.length !walls < 3 || sum !walls +. median !walls <= o.seconds
  in
  while continue () do
    let t = now () in
    let outs = Session.run_all sess scs in
    walls := (now () -. t) :: !walls;
    List.iter
      (fun (out : Session.outcome) ->
        Hashtbl.add lats (Scenario.key out.Session.scenario) out.Session.elapsed_s)
      outs;
    check_sweep tally expect first outs;
    setup_group ~small:o.small setups sample
  done;
  [
    metric "scenarios_per_s" "1/s"
      (median (List.map (fun w -> float_of_int n /. w) !walls))
      ~note:
        (Printf.sprintf "median of %d batches of %d, jobs %d, steal"
           (List.length !walls) n nproc);
  ]
  (* Each scenario counts once: its median over the batches. *)
  @ latency_metrics
      (List.map (fun sc -> median (Hashtbl.find_all lats (Scenario.key sc))) scs)
  @ [
      setup_metric !setups
        ~what:
          (Printf.sprintf "Session.create + cold preparation of %d programs"
             programs);
    ]

(* Untraced Session.run_all batches and traced batches of the same list
   on an equally configured pool.  After one untraced warm-up batch (the
   process's heap grows during its first batch), they run in the order
   untraced, traced, traced, untraced, so drift favours neither side.  The overhead compares
   per-scenario wall times, which batch scheduling does not skew.  Pool
   figures come from the second untraced batch (warm Session, calibrated
   costs). *)
let sweep_trace o tally =
  let scs = sweep_list o in
  let n = List.length scs in
  let expect = load_expect_for o "sweep" in
  let first = Hashtbl.create 256 in
  let sess = sweep_session () in
  let untraced () =
    let t = now () in
    let outs = Session.run_all sess scs in
    let wall = now () -. t in
    check_sweep tally expect first outs;
    (outs, wall)
  in
  let kc = Kcache.create () in
  let pool = Pool.create ~sched:Pool.Steal ~jobs:nproc () in
  let gcs = ref (0, 0) in
  let traced () =
    let m0 = minor () and j0 = major () in
    let ts =
      Pool.parallel_map ~cost:Scenario.cost_estimate pool (run_traced kc) scs
    in
    let mi, ma = !gcs in
    gcs := (mi + minor () - m0, ma + major () - j0);
    ts
  in
  ignore (untraced ());
  let outs1, _ = untraced () in
  let ts1 = traced () in
  let ts2 = traced () in
  let outs2, u2 = untraced () in
  let steals = Session.last_steals sess in
  let busy =
    sum (List.map (fun (out : Session.outcome) -> out.Session.elapsed_s) outs2)
    /. (float_of_int nproc *. u2)
  in
  List.iter
    (fun (outs, ts) ->
      List.iter2
        (fun (out : Session.outcome) tr ->
          same_result tally ~key:(Scenario.key tr.t_scenario)
            out.Session.result tr.t_result)
        outs ts)
    [ (outs1, ts1); (outs2, ts2) ];
  let st = Kcache.stats kc in
  layer_metrics (ts1 @ ts2)
  @ run_metrics
      ~kcache:(st.Kcache.hits, st.Kcache.misses, st.Kcache.disk_writes)
      ~busy ~steals ~gcs:!gcs ~n:(2 * n)
      ~overhead:
        (sum (List.map (fun t -> t.t_wall) (ts1 @ ts2))
         /. sum
              (List.map
                 (fun (out : Session.outcome) -> out.Session.elapsed_s)
                 (outs1 @ outs2))
        -. 1.)
      ()

(* --- serve ------------------------------------------------------------------------------ *)

(* Digest of one served outcome: the report's md5, or "error". *)
let served_digest tally (sc : Scenario.t) res =
  let key = Scenario.key sc in
  match res with
  | Error msg ->
    record_failure tally ~key msg;
    "error"
  | Ok (r : Client.sweep_result) -> (
    match r.Client.outcomes with
    | [ o ] -> (
      match (J.member "error" o, J.member "report" o) with
      | Some e, _ ->
        record_failure tally ~key (J.to_str e);
        "error"
      | None, Some rep -> md5 (json_string rep)
      | None, None ->
        incorrect tally "%s: outcome without report" key;
        "error")
    | _ ->
      incorrect tally "%s: expected one outcome" key;
      "error")

(* The committed serve expectation holds one digest per block of 100
   consecutive requests of the pinned seed's stream. *)
let block_size = 100

type blocks = {
  mutable buf : string list;
  mutable idx : int;
  expect_tbl : (string, string) Hashtbl.t option;
  mutable written : (string * string) list;
}

let block_add tally b d =
  b.buf <- d :: b.buf;
  if List.length b.buf = block_size then begin
    let key = Printf.sprintf "block-%04d" b.idx in
    let got = md5 (String.concat "," (List.rev b.buf)) in
    Option.iter
      (fun tbl ->
        match Hashtbl.find_opt tbl key with
        | None -> ()
        | Some want ->
          tally.checked <- tally.checked + block_size;
          if want <> got then
            incorrect tally "serve requests %d-%d: digest %s, expected %s"
              (b.idx * block_size) (((b.idx + 1) * block_size) - 1) got want)
      b.expect_tbl;
    b.written <- (key, got) :: b.written;
    b.buf <- [];
    b.idx <- b.idx + 1
  end

(* One connection, closed loop: the next request is sent when the
   previous one's done event arrives.  Set-up samples (fresh daemons,
   spawned and stopped) are taken before the loop and after each third
   of it, with the loop clock paused. *)
let serve_run o tally =
  let spawned = ref 0 in
  let sample () =
    incr spawned;
    let d = spawn_dpcd ~dpcd:o.dpcd !spawned in
    stop_dpcd d;
    d.ready_s
  in
  let setups = ref [] in
  let group () =
    for _ = 1 to if o.small then 2 else 5 do
      setups := sample () :: !setups
    done
  in
  group ();
  let d = spawn_dpcd ~dpcd:o.dpcd 0 in
  let next = serve_stream ~seed:o.seed in
  let blocks =
    { buf = []; idx = 0; expect_tbl = load_expect_for o "serve"; written = [] }
  in
  let min_requests = if o.small then block_size else 1000 in
  let samples = ref [] and lats = ref [] and count = ref 0 in
  let paused = ref 0. and groups = ref 0 in
  let t_start = now () in
  let timed () = now () -. t_start -. !paused in
  Client.with_connection d.sock (fun c ->
      while !count < min_requests || timed () < o.seconds do
        let sc = next () in
        let t = now () in
        let res = Client.sweep c [ sc ] in
        lats := (now () -. t) :: !lats;
        tally.attempted <- tally.attempted + 1;
        let dg = served_digest tally sc res in
        block_add tally blocks dg;
        if !count mod 50 = 0 then samples := (sc, dg) :: !samples;
        incr count;
        if !groups < 2 && timed () >= float_of_int (!groups + 1) *. o.seconds /. 3.
        then begin
          let t = now () in
          group ();
          incr groups;
          paused := !paused +. (now () -. t)
        end
      done);
  let wall = timed () in
  stop_dpcd d;
  (* Differential spot check, for every seed: a sample of the served
     reports must equal an in-process Session's. *)
  let sess = Session.create () in
  List.iter
    (fun (sc, dg) ->
      let out = Session.run_outcome sess sc in
      tally.checked <- tally.checked + 1;
      if digest_of_result out.Session.result <> dg then
        incorrect tally "%s: served and in-process reports differ"
          (Scenario.key sc))
    !samples;
  [
    metric "scenarios_per_s" "1/s" (float_of_int !count /. wall)
      ~note:(Printf.sprintf "%d requests, 1 connection, closed loop" !count);
  ]
  @ latency_metrics !lats
  @ [ setup_metric !setups ~what:"dpcd spawn until it answers a ping" ]

(* The first [n] requests of the stream, each served by dpcd and then run
   untraced and traced in process; the daemon's own figures come from
   its done events and its stats verb. *)
let serve_trace o tally =
  let d = spawn_dpcd ~dpcd:o.dpcd 0 in
  let next = serve_stream ~seed:o.seed in
  let n = if o.small then block_size else 1000 in
  let scs = List.init n (fun _ -> next ()) in
  let blocks =
    { buf = []; idx = 0; expect_tbl = load_expect_for o "serve"; written = [] }
  in
  let rtts = ref [] and servers = ref [] in
  Fun.protect
    ~finally:(fun () -> stop_dpcd d)
    (fun () ->
      Client.with_connection d.sock (fun c ->
          let dpcd sc =
            let t = now () in
            let res = Client.sweep c [ sc ] in
            let rtt = now () -. t in
            (match res with
            | Ok r ->
              rtts := rtt :: !rtts;
              servers := r.Client.elapsed_s :: !servers
            | Error _ -> ());
            let dg = served_digest tally sc res in
            block_add tally blocks dg;
            Some dg
          in
          let ts, _, _, gcs, overhead =
            traced_serial ~dpcd tally scs ~check:(fun _ _ -> ())
          in
          let stats = Client.stats c |> Result.get_ok in
          let ms xs = 1000. *. median xs in
          let transport = List.map2 ( -. ) !rtts !servers in
          layer_metrics ts
          @ run_metrics
              ~kcache:
                ( stats_int stats [ "cache"; "hits" ],
                  stats_int stats [ "cache"; "misses" ],
                  stats_int stats [ "cache"; "disk_writes" ] )
              ~serve_ms:(ms !servers, ms transport)
              ~busy:(sum !servers /. sum !rtts)
              ~steals:(stats_int stats [ "steals" ])
              ~gcs ~n ~overhead ~rss_pid:(string_of_int d.pid) ()))

(* --- expectations ------------------------------------------------------------------------ *)

let write_expectations o =
  if o.seed <> expect_seed then
    fail_usage "expectations are pinned for --seed %d" expect_seed;
  let run scs = Session.run_all (sweep_session ()) scs in
  let entries =
    match o.workload with
    | "sweep" ->
      List.map
        (fun (out : Session.outcome) ->
          ( Scenario.key out.Session.scenario,
            digest_of_result out.Session.result ))
        (run (sweep_list o))
    | "serve" ->
      let next = serve_stream ~seed:o.seed in
      let b = { buf = []; idx = 0; expect_tbl = None; written = [] } in
      List.iter
        (fun (out : Session.outcome) ->
          block_add (tally ()) b (digest_of_result out.Session.result))
        (run (List.init (100 * block_size) (fun _ -> next ())));
      List.rev b.written
    | w -> fail_usage "no expectations to write for %s" w
  in
  write_expect ~dir:expect_dir o.workload ~seed:o.seed entries

(* --- main ---------------------------------------------------------------------------------- *)

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and small = ref false and write = ref false and dpcd = ref ""
  and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "suite|serve|sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--small", Arg.Set small, " reduced sizes (self-test)");
      ("--write-expect", Arg.Set write, " regenerate the committed expectation");
      ("--dpcd", Arg.Set_string dpcd, "PATH dpcd executable");
      ("--commit", Arg.Set_string commit, "ID source identity to record");
    ]
  in
  Arg.parse spec (fun a -> fail_usage "unexpected argument %s" a) "perfbench";
  if not (List.mem !workload [ "suite"; "serve"; "sweep" ]) then
    fail_usage "--workload must be suite, serve or sweep";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  if !workload = "serve" && !dpcd = "" && not !write then
    fail_usage "serve needs --dpcd";
  ( {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      small = !small;
      write_expect = !write;
      dpcd = !dpcd;
    },
    !commit )

let () =
  let o, commit = parse_args () in
  (* The environment must not change what is measured. *)
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        fail_usage "refusing to run with %s set" v)
    [ "DPC_INTERP"; "DPC_BYTECODE_FUSE" ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if o.write_expect then write_expectations o
  else begin
    let presets =
      match o.workload with
      | "suite" -> [ "k20c" ]
      | "serve" -> serve_presets
      | _ -> sweep_presets
    in
    let env =
      J.Obj
        [
          ("workload", J.String o.workload);
          ("seed", J.Int o.seed);
          ("trace", J.Bool o.trace);
          ("small", J.Bool o.small);
          ("tier", J.String (Interp.mode_to_string (Interp.default_mode ())));
          ("presets", J.List (List.map (fun p -> J.String p) presets));
          ("nproc", J.Int nproc);
          ("ocaml", J.String Sys.ocaml_version);
          ("commit", J.String commit);
        ]
    in
    Printf.printf "perfbench env %s\n%!" (J.to_string env);
    let tally = tally () in
    let metrics =
      match (o.workload, o.trace) with
      | "suite", false -> suite_run o tally
      | "suite", true -> suite_trace o tally
      | "sweep", false -> sweep_run o tally
      | "sweep", true -> sweep_trace o tally
      | "serve", false -> serve_run o tally
      | _ -> serve_trace o tally
    in
    emit ~tally
      ~header:
        (Printf.sprintf "perfbench %s (%s):" o.workload
           (if o.trace then "traced, per-layer" else "untraced, end-to-end"))
      metrics
  end
