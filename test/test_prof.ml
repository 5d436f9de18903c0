(* Dpc_prof: JSON printer/parser, event-stream invariants, per-kernel
   profiles, Chrome-trace structure, and the exported suite snapshot.

   The profiling subsystem has a determinism contract — per-run sinks,
   insertion-ordered JSON objects, fixed float formatting — so these
   tests lean on byte-for-byte comparisons, including across domain
   counts. *)

module Json = Dpc_prof.Json
module Event = Dpc_prof.Event
module Profile = Dpc_prof.Profile
module Chrome = Dpc_prof.Chrome_trace
module M = Dpc_sim.Metrics
module Device = Dpc_sim.Device
module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Pragma = Dpc_kir.Pragma
module Table = Dpc_util.Table
module E = Dpc_experiments

(* --- Json ---------------------------------------------------------------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
      ("n", Json.Int (-42));
      ("big", Json.Int 9007199254740993);
      ("xs", Json.List [ Json.Float 1.5; Json.Float 0.1; Json.Float 1e-3 ]);
      ("s", Json.String "quote \" slash \\ newline \n tab \t unicode \x01");
      ("empty_obj", Json.Obj []);
      ("empty_list", Json.List []);
    ]

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool a, Json.Bool b -> a = b
  | Json.Int a, Json.Int b -> a = b
  | Json.Float a, Json.Float b -> a = b
  | Json.String a, Json.String b -> a = b
  | Json.List a, Json.List b ->
    List.length a = List.length b && List.for_all2 json_eq a b
  | Json.Obj a, Json.Obj b ->
    List.length a = List.length b
    && List.for_all2
         (fun (ka, va) (kb, vb) -> ka = kb && json_eq va vb)
         a b
  | _ -> false

let test_json_roundtrip () =
  let compact = Json.to_string sample_json in
  let pretty = Json.to_string_pretty sample_json in
  Alcotest.(check bool) "compact roundtrips" true
    (json_eq sample_json (Json.parse compact));
  Alcotest.(check bool) "pretty roundtrips" true
    (json_eq sample_json (Json.parse pretty));
  (* printing is a function of the value alone *)
  Alcotest.(check string) "reprint is stable" compact
    (Json.to_string (Json.parse compact))

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  Alcotest.(check bool) "bare word" true (bad "nul");
  Alcotest.(check bool) "nan not representable" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Metrics completeness ------------------------------------------------ *)

(* A report whose eighteen fields all carry distinct, recognizable
   values: if a field is dropped from [to_rows] or [to_json], its value
   disappears from the output and the test names it. *)
let distinct_report =
  {
    M.cycles = 101.0;
    time_ms = 102.5;
    host_launches = 103;
    device_launches = 104;
    warp_efficiency = 0.105;
    occupancy = 0.106;
    dram_transactions = 107;
    l2_hits = 108;
    bank_conflict_replays = 117;
    mshr_stalls = 118;
    alloc_calls = 109;
    alloc_cycles = 110;
    pool_fallbacks = 111;
    virtualized_launches = 112;
    max_pending = 113;
    swapped_syncs = 114;
    max_depth = 115;
    total_grids = 116;
  }

let test_metrics_rows_complete () =
  let rows = M.to_rows distinct_report in
  Alcotest.(check int) "eighteen rows" 18 (List.length rows);
  let mem v what =
    Alcotest.(check bool) (what ^ " present") true
      (List.exists (fun (_, cell) -> cell = v) rows
       || List.exists
            (fun (_, cell) ->
              (* percentage-formatted fields *)
              cell = v ^ "%")
            rows)
  in
  mem "101" "cycles";
  mem "102.500" "time_ms";
  mem "103" "host_launches";
  mem "104" "device_launches";
  mem "10.5" "warp_efficiency";
  mem "10.6" "occupancy";
  mem "107" "dram_transactions";
  mem "108" "l2_hits";
  mem "117" "bank_conflict_replays";
  mem "118" "mshr_stalls";
  mem "109" "alloc_calls";
  mem "110" "alloc_cycles";
  mem "111" "pool_fallbacks";
  mem "112" "virtualized_launches";
  mem "113" "max_pending";
  mem "114" "swapped_syncs";
  mem "115" "max_depth";
  mem "116" "total_grids"

let test_metrics_json_complete () =
  let j = M.to_json distinct_report in
  let fields =
    match j with
    | Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "to_json is not an object"
  in
  Alcotest.(check int) "eighteen fields" 18 (List.length fields);
  let num key expect =
    match Json.member key j with
    | Some v -> Alcotest.(check (float 1e-9)) key expect (Json.number v)
    | None -> Alcotest.fail (key ^ " missing")
  in
  num "cycles" 101.0;
  num "time_ms" 102.5;
  num "host_launches" 103.0;
  num "device_launches" 104.0;
  num "warp_efficiency" 0.105;
  num "occupancy" 0.106;
  num "dram_transactions" 107.0;
  num "l2_hits" 108.0;
  num "bank_conflict_replays" 117.0;
  num "mshr_stalls" 118.0;
  num "alloc_calls" 109.0;
  num "alloc_cycles" 110.0;
  num "pool_fallbacks" 111.0;
  num "virtualized_launches" 112.0;
  num "max_pending" 113.0;
  num "swapped_syncs" 114.0;
  num "max_depth" 115.0;
  num "total_grids" 116.0

(* --- event-stream invariants --------------------------------------------- *)

(* One profiled SSSP run, shared across the stream/profile/trace tests
   (profiling replays the timing model, so keep it to a single run). *)
let profiled =
  lazy
    (let events = ref [||] in
     let num_smx = ref 0 in
     let inspect dev =
       events := Device.profile dev;
       num_smx := (Device.config dev).Dpc_gpu.Config.num_smx
     in
     let report =
       Scenario.make ~app:"SSSP" ~scale:700 (H.Cons Pragma.Grid)
       |> Scenario.to_spec ~inspect |> R.sssp.R.run_spec
     in
     (report, !events, !num_smx))

let test_event_stream_invariants () =
  let _, events, num_smx = Lazy.force profiled in
  Alcotest.(check bool) "events recorded" true (Array.length events > 0);
  (* global emission order is simulated-time order *)
  let last = ref neg_infinity in
  Array.iter
    (fun (ev : Event.t) ->
      Alcotest.(check bool) "cycles monotone" true (ev.Event.cycles >= !last);
      last := ev.Event.cycles;
      Alcotest.(check bool) "smx in range" true
        (ev.Event.smx >= -1 && ev.Event.smx < num_smx);
      Alcotest.(check bool) "depth sane" true (ev.Event.depth >= 0))
    events;
  (* per-SMX streams are monotone too (they are a filtration of the
     global stream, but check independently — the Chrome exporter
     builds one track per SMX from them) *)
  let per_smx = Hashtbl.create 16 in
  Array.iter
    (fun (ev : Event.t) ->
      if ev.Event.smx >= 0 then begin
        let prev =
          Option.value ~default:neg_infinity
            (Hashtbl.find_opt per_smx ev.Event.smx)
        in
        Alcotest.(check bool) "per-SMX monotone" true
          (ev.Event.cycles >= prev);
        Hashtbl.replace per_smx ev.Event.smx ev.Event.cycles
      end)
    events;
  (* every grid that starts also completes, exactly once *)
  let started = Hashtbl.create 64 and completed = Hashtbl.create 64 in
  Array.iter
    (fun (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Grid_started ->
        Alcotest.(check bool) "started once" false
          (Hashtbl.mem started ev.Event.gid);
        Hashtbl.add started ev.Event.gid ()
      | Event.Grid_completed _ ->
        Alcotest.(check bool) "completed once" false
          (Hashtbl.mem completed ev.Event.gid);
        Hashtbl.add completed ev.Event.gid ()
      | _ -> ())
    events;
  Alcotest.(check int) "every started grid completes"
    (Hashtbl.length started) (Hashtbl.length completed)

let test_profile_launch_counts () =
  let report, events, _ = Lazy.force profiled in
  let rows = Profile.of_events events in
  Alcotest.(check bool) "has rows" true (rows <> []);
  let total =
    List.fold_left (fun acc (r : Profile.row) -> acc + r.Profile.launches) 0
      rows
  in
  Alcotest.(check int) "launches = host + device"
    (report.M.host_launches + report.M.device_launches)
    total;
  (* depth 0 rows account for exactly the host launches *)
  let host =
    List.fold_left
      (fun acc (r : Profile.row) ->
        if r.Profile.depth = 0 then acc + r.Profile.launches else acc)
      0 rows
  in
  Alcotest.(check int) "depth-0 launches = host launches"
    report.M.host_launches host

let test_chrome_trace_invariants () =
  let _, events, num_smx = Lazy.force profiled in
  let doc = Json.parse (Chrome.to_string ~num_smx events) in
  let evs =
    match Json.member "traceEvents" doc with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check bool) "has events" true (evs <> []);
  let queue_tid = Chrome.queue_tid ~num_smx in
  let field name e =
    match Json.member name e with
    | Some v -> v
    | None -> Alcotest.fail ("event missing " ^ name)
  in
  let last_ts = ref neg_infinity in
  let seen_slice_tids = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Json.to_str (field "ph" e) with
      | "M" -> () (* metadata records carry no ts *)
      | "X" ->
        let ts = Json.number (field "ts" e) in
        let dur = Json.number (field "dur" e) in
        let tid = Json.to_int (field "tid" e) in
        Alcotest.(check bool) "ts sorted" true (ts >= !last_ts);
        last_ts := ts;
        Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
        Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
        Alcotest.(check bool) "tid in range" true
          (tid >= 0 && tid <= queue_tid);
        Hashtbl.replace seen_slice_tids tid ()
      | "C" | "i" ->
        let ts = Json.number (field "ts" e) in
        Alcotest.(check bool) "ts sorted" true (ts >= !last_ts);
        last_ts := ts
      | ph -> Alcotest.fail ("unexpected phase " ^ ph))
    evs;
  Alcotest.(check bool) "launch-queue track populated" true
    (Hashtbl.mem seen_slice_tids queue_tid);
  Alcotest.(check bool) "at least one SMX track populated" true
    (Hashtbl.fold (fun tid () acc -> acc || tid < queue_tid)
       seen_slice_tids false)

(* --- suite artifacts: jobs-independence and JSON round-trip -------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fn -> Sys.remove (Filename.concat dir fn))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_trace_files_jobs_identical () =
  with_temp_dir "dpc-prof-j1" (fun d1 ->
      with_temp_dir "dpc-prof-j4" (fun d4 ->
          let collect jobs dir =
            ignore
              (E.Suite.collect ~scale:700 ~apps:[ R.sssp ]
                 ~inspect:(E.Suite.trace_to dir)
                 ~session:(Session.create ~jobs ()) ())
          in
          collect 1 d1;
          collect 4 d4;
          let names dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
          Alcotest.(check (list string)) "same artifact set" (names d1)
            (names d4);
          Alcotest.(check bool) "traces written" true
            (List.exists
               (fun n -> Filename.check_suffix n ".trace.json")
               (names d1));
          List.iter
            (fun n ->
              Alcotest.(check string) (n ^ " byte-identical")
                (read_file (Filename.concat d1 n))
                (read_file (Filename.concat d4 n)))
            (names d1)))

(* Scenario-mode tracing ([experiments --scenario ... --trace]: a parsed
   scenario string through [Session.run_all] with the artifact hook)
   writes the same two files, byte for byte, as the suite's traced run of
   that app and variant, in a session that also ran untraced. *)
let test_scenario_trace_matches_suite () =
  with_temp_dir "dpc-prof-suite" (fun ds ->
      with_temp_dir "dpc-prof-scenario" (fun dc ->
          let session = Session.create () in
          ignore
            (E.Suite.collect ~scale:300 ~apps:[ R.sssp ]
               ~inspect:(E.Suite.trace_to ds) ~session ());
          let sc =
            Scenario.of_string "app=SSSP,variant=grid-level,scale=300"
          in
          ignore (Session.report (List.hd (Session.run_all session [ sc ])));
          ignore
            (Session.report
               (List.hd
                  (Session.run_all ~inspect:(E.Suite.trace_to dc) session
                     [ sc ])));
          Alcotest.(check (list string)) "one run's files"
            [ "sssp-grid-level.profile.json"; "sssp-grid-level.trace.json" ]
            (List.sort compare (Array.to_list (Sys.readdir dc)));
          Array.iter
            (fun n ->
              Alcotest.(check string) (n ^ " byte-identical")
                (read_file (Filename.concat ds n))
                (read_file (Filename.concat dc n)))
            (Sys.readdir dc)))

let test_suite_json_roundtrip () =
  let s =
    E.Suite.collect ~scale:700 ~apps:[ R.sssp ] ~session:(Session.create ())
      ()
  in
  let fig7 = E.Figs7_10.fig7 s in
  let doc =
    Json.parse
      (Json.to_string_pretty (E.Export.suite_json ~scale:700 s ~tables:[ fig7 ]))
  in
  (match Json.member "schema" doc with
  | Some v ->
    Alcotest.(check string) "schema" E.Export.schema_version (Json.to_str v)
  | None -> Alcotest.fail "schema missing");
  (match Json.member "scale" doc with
  | Some v -> Alcotest.(check int) "scale recorded" 700 (Json.to_int v)
  | None -> Alcotest.fail "scale missing");
  (* the exported table must match the rendered one cell for cell *)
  let table =
    match Json.member "tables" doc with
    | Some l -> List.hd (Json.to_list l)
    | None -> Alcotest.fail "tables missing"
  in
  (match Json.member "title" table with
  | Some v -> Alcotest.(check string) "title" (Table.title fig7) (Json.to_str v)
  | None -> Alcotest.fail "title missing");
  let exported_rows =
    match Json.member "rows" table with
    | Some l -> List.map (fun r -> List.map Json.to_str (Json.to_list r)) (Json.to_list l)
    | None -> Alcotest.fail "rows missing"
  in
  Alcotest.(check (list (list string))) "cells round-trip" (Table.rows fig7)
    exported_rows;
  (* and the per-variant reports re-read as the numbers the suite holds *)
  let row = List.hd s in
  let app =
    match Json.member "apps" doc with
    | Some l -> List.hd (Json.to_list l)
    | None -> Alcotest.fail "apps missing"
  in
  let variants =
    match Json.member "variants" app with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "variants missing"
  in
  List.iter2
    (fun (_, (report : M.report)) v ->
      let rj =
        match Json.member "report" v with
        | Some r -> r
        | None -> Alcotest.fail "report missing"
      in
      match Json.member "cycles" rj with
      | Some c ->
        Alcotest.(check (float 0.0)) "cycles exact" report.M.cycles
          (Json.number c)
      | None -> Alcotest.fail "cycles missing")
    row.E.Suite.results variants

(* --- timeline axis (the negative-padding regression) --------------------- *)

let test_timeline_narrow_width () =
  let cfg = Dpc_gpu.Config.k20c in
  let samples = [ (0.0, 64); (500.0, 128); (900.0, 16) ] in
  List.iter
    (fun width ->
      let out =
        Dpc_sim.Timeline.render ~width ~height:4 cfg ~total_cycles:1000.0
          samples
      in
      let lines = String.split_on_char '\n' out in
      let axis =
        match List.rev lines with
        | "" :: a :: _ -> a
        | a :: _ -> a
        | [] -> Alcotest.fail "empty render"
      in
      Alcotest.(check bool)
        (Printf.sprintf "width %d axis intact" width)
        true
        (String.length axis > 0
        && String.sub axis 0 (String.length "        0 cycles")
           = "        0 cycles");
      (* the trailer must survive unsheared at any width *)
      let trailer = "cycles (resident warps over time)" in
      let has_trailer =
        let tl = String.length trailer and al = String.length axis in
        al >= tl && String.sub axis (al - tl) tl = trailer
      in
      Alcotest.(check bool)
        (Printf.sprintf "width %d trailer intact" width)
        true has_trailer)
    [ 8; 20; 31; 72 ]

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "metrics rows complete" `Quick
      test_metrics_rows_complete;
    Alcotest.test_case "metrics json complete" `Quick
      test_metrics_json_complete;
    Alcotest.test_case "event stream invariants" `Quick
      test_event_stream_invariants;
    Alcotest.test_case "profile launch counts" `Quick
      test_profile_launch_counts;
    Alcotest.test_case "chrome trace invariants" `Quick
      test_chrome_trace_invariants;
    Alcotest.test_case "trace files jobs-identical" `Slow
      test_trace_files_jobs_identical;
    Alcotest.test_case "scenario trace matches suite" `Quick
      test_scenario_trace_matches_suite;
    Alcotest.test_case "suite json round-trip" `Quick
      test_suite_json_roundtrip;
    Alcotest.test_case "timeline narrow width" `Quick
      test_timeline_narrow_width;
  ]
