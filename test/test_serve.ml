(* Serve layer: wire framing, dpc-serve-v1 codecs, the persistent
   on-disk program cache, and the daemon itself
   (run in-process on a second domain against a temp socket).

   The load-bearing properties: a sweep served by the daemon is
   record-wise byte-identical to the same sweep run directly; a store
   directory warm-starts a cold process to the same bytes; and no
   client-side failure (bad request, quota, timeout, vanishing peer)
   kills the daemon. *)

module H = Dpc_apps.Harness
module Pragma = Dpc_kir.Pragma
module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Kcache = Dpc_engine.Kcache
module Pstore = Dpc_engine.Pstore
module Export = Dpc_experiments.Export
module Framing = Dpc_util.Framing
module Protocol = Dpc_serve.Protocol
module Server = Dpc_serve.Server
module Client = Dpc_serve.Client

let outcome_str (o : Session.outcome) = Json.to_string (Export.outcome_json o)

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

let with_temp_dir prefix f =
  let dir = mk_temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- framing ---------------------------------------------------------------- *)

(* Frames split arbitrarily across feeds reassemble exactly, CR-LF and
   bare-LF alike, and a trailing partial line stays pending. *)
let framing_reassembly () =
  let t = Framing.create () in
  Alcotest.(check (list string)) "first chunk holds one frame"
    [ "alpha" ]
    (Framing.feed_string t "alpha\nbr");
  Alcotest.(check int) "partial stays buffered" 2 (Framing.pending t);
  Alcotest.(check (list string)) "split frame completes"
    [ "bravo"; "charlie" ]
    (Framing.feed_string t "avo\r\ncharlie\n");
  Alcotest.(check (list string)) "empty feed yields nothing" []
    (Framing.feed_string t "");
  Alcotest.(check (list string)) "empty line is an empty frame" [ "" ]
    (Framing.feed_string t "\n");
  Alcotest.(check int) "nothing pending" 0 (Framing.pending t)

let framing_byte_at_a_time () =
  let t = Framing.create () in
  let input = "one\ntwo\r\nthree\n" in
  let got = ref [] in
  String.iter
    (fun c ->
      got := !got @ Framing.feed_string t (String.make 1 c))
    input;
  Alcotest.(check (list string)) "byte-at-a-time framing"
    [ "one"; "two"; "three" ] !got

(* A frame of exactly [max_frame] bytes still passes; one byte more
   drops the frame, flags the stream and ends it, while frames completed
   earlier in the same chunk are still delivered. *)
let framing_bounded () =
  let t = Framing.create () in
  let at_limit = String.make Framing.max_frame 'x' in
  Alcotest.(check (list string)) "frame at the limit passes" [ at_limit ]
    (Framing.feed_string t (at_limit ^ "\n"));
  Alcotest.(check bool) "no overflow at the limit" false
    (Framing.overflowed t);
  let t = Framing.create () in
  Alcotest.(check (list string)) "earlier frame delivered" [ "ok" ]
    (Framing.feed_string t ("ok\n" ^ at_limit ^ "y"));
  Alcotest.(check bool) "one byte over overflows" true (Framing.overflowed t);
  Alcotest.(check int) "overflowed frame dropped" 0 (Framing.pending t);
  Alcotest.(check (list string)) "nothing after the overflow" []
    (Framing.feed_string t "\nlate\n")

(* --- protocol codecs -------------------------------------------------------- *)

let sc_a = Scenario.make ~app:"SSSP" ~scale:300 (H.Cons Pragma.Grid)
let sc_b = Scenario.make ~app:"SpMV" ~scale:200 (H.Cons Pragma.Block)

let protocol_request_roundtrip () =
  let reqs =
    [
      Protocol.Sweep { id = "r1"; scenarios = [ sc_a; sc_b ]; timeout_s = Some 2.5 };
      Protocol.Sweep { id = "r2"; scenarios = [ sc_a ]; timeout_s = None };
      Protocol.Stats { id = "s" };
      Protocol.Ping { id = "p" };
      Protocol.Shutdown { id = "q" };
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.frame (Protocol.request_to_json r) in
      match Protocol.request_of_string (String.trim line) with
      | Error e -> Alcotest.failf "roundtrip rejected %s: %s" line e
      | Ok r' ->
        Alcotest.(check string)
          "request roundtrips"
          (Json.to_string (Protocol.request_to_json r))
          (Json.to_string (Protocol.request_to_json r')))
    reqs;
  (match Protocol.request_of_string "{\"verb\":\"sweep\",\"id\":\"x\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sweep without scenarios must be rejected");
  (match Protocol.request_of_string "{\"v\":\"dpc-serve-v9\",\"verb\":\"ping\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong protocol version must be rejected");
  match Protocol.request_of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-JSON must be rejected"

let protocol_event_roundtrip () =
  let events =
    [
      Protocol.Outcome
        {
          id = "r1";
          seq = 3;
          total = 7;
          elapsed_s = 0.25;
          outcome = Json.Obj [ ("key", Json.String "k") ];
        };
      Protocol.Done
        { id = "r1"; runs = 7; failed = 1; skipped = 2; timed_out = true;
          elapsed_s = 1.5 };
      Protocol.Error_event { id = "r2"; code = "quota"; message = "too big" };
      Protocol.Stats_event { id = "s"; stats = Json.Obj [ ("x", Json.Int 1) ] };
      Protocol.Pong { id = "p" };
      Protocol.Bye { id = "q" };
    ]
  in
  List.iter
    (fun e ->
      let line = Protocol.frame (Protocol.event_to_json e) in
      match Protocol.event_of_string (String.trim line) with
      | Error msg -> Alcotest.failf "event roundtrip rejected %s: %s" line msg
      | Ok e' ->
        Alcotest.(check string)
          "event roundtrips"
          (Json.to_string (Protocol.event_to_json e))
          (Json.to_string (Protocol.event_to_json e')))
    events

(* --- persistent store ------------------------------------------------------- *)

let run_one ?persist sc =
  let s = Session.create ?persist () in
  let o = Session.run_outcome s sc in
  (s, outcome_str o)

(* A store written by one session warm-starts a second, byte-identically:
   the second session builds nothing (disk hits only). *)
let pstore_roundtrip () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let sa, ra = run_one ~persist:dir sc_a in
  let stats_a = Session.cache_stats sa in
  Alcotest.(check int) "first run builds fresh" 1 stats_a.Kcache.misses;
  Alcotest.(check int) "first run persists" 1 stats_a.Kcache.disk_writes;
  let sb, rb = run_one ~persist:dir sc_a in
  let stats_b = Session.cache_stats sb in
  Alcotest.(check int) "warm start builds nothing" 0 stats_b.Kcache.misses;
  Alcotest.(check int) "warm start loads from disk" 1 stats_b.Kcache.disk_hits;
  Alcotest.(check string) "warm metrics byte-identical" ra rb;
  (* And byte-identical to a session with no store at all. *)
  let _, rc = run_one sc_a in
  Alcotest.(check string) "identical to storeless run" ra rc

(* Warm-vs-cold identity across program families (the fig7 apps at small
   scale): the store is invisible in the metrics. *)
let pstore_warm_identity_suite () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let scs =
    [
      Scenario.make ~app:"SSSP" ~scale:300 (H.Cons Pragma.Grid);
      Scenario.make ~app:"SpMV" ~scale:200 (H.Cons Pragma.Block);
      Scenario.make ~app:"GC" ~scale:8 (H.Cons Pragma.Warp);
      Scenario.make ~app:"TD" H.Basic;
    ]
  in
  let cold = Session.create () in
  let cold_strs = List.map outcome_str (Session.run_all cold scs) in
  let writer = Session.create ~persist:dir () in
  ignore (Session.run_all writer scs);
  let warm = Session.create ~persist:dir () in
  let warm_strs = List.map outcome_str (Session.run_all warm scs) in
  List.iter2
    (Alcotest.(check string) "warm outcome byte-identical to cold")
    cold_strs warm_strs;
  let stats = Session.cache_stats warm in
  Alcotest.(check int) "warm session built nothing" 0 stats.Kcache.misses;
  Alcotest.(check bool) "warm session loaded from disk" true
    (stats.Kcache.disk_hits > 0)

(* Corrupt, truncated and stale-format store files degrade to ordinary
   misses (the run rebuilds, byte-identically) and never raise. *)
let pstore_rejects_bad_files () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let _, ra = run_one ~persist:dir sc_a in
  let file =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".prep")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | files -> Alcotest.failf "expected one .prep file, got %d" (List.length files)
  in
  let original = In_channel.with_open_bin file In_channel.input_all in
  let rewrite s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s) in
  let check_degrades what expect_failure =
    let sb, rb = run_one ~persist:dir sc_a in
    let cs = Session.cache_stats sb in
    Alcotest.(check int) (what ^ ": no disk hit") 0 cs.Kcache.disk_hits;
    Alcotest.(check int) (what ^ ": rebuilt fresh") 1 cs.Kcache.misses;
    Alcotest.(check string) (what ^ ": metrics unaffected") ra rb;
    let ps = Option.get (Session.persist_stats sb) in
    Alcotest.(check bool)
      (what ^ ": counted as load failure")
      expect_failure
      (ps.Pstore.load_failures > 0)
  in
  (* Truncated payload. *)
  rewrite (String.sub original 0 (String.length original - 7));
  check_degrades "truncated" true;
  (* Flipped payload byte (digest mismatch). *)
  let corrupt = Bytes.of_string original in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0xff));
  rewrite (Bytes.to_string corrupt);
  check_degrades "corrupt" true;
  (* Format-version mismatch: header from a hypothetical older repo. *)
  rewrite ("dpc-kcache-v0" ^ String.sub original (String.length Pstore.format_version) (String.length original - String.length Pstore.format_version));
  check_degrades "stale format" true;
  (* Not even our file shape. *)
  rewrite "not a cache file at all\n";
  check_degrades "foreign file" true

(* Concurrent writers to one store directory: atomic renames mean the
   published file is always complete and loadable. *)
let pstore_concurrent_writers () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let domains =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let s = Session.create ~persist:dir () in
            let o = Session.run_outcome s (if i = 0 then sc_a else Scenario.make ~app:"SSSP" ~scale:300 ~seed:7 (H.Cons Pragma.Grid)) in
            outcome_str o))
  in
  let _ = List.map Domain.join domains in
  (* Both scenarios share one program family; whoever won the rename
     race left a complete, loadable file behind. *)
  let sb, rb = run_one ~persist:dir sc_a in
  let stats = Session.cache_stats sb in
  Alcotest.(check int) "racing writers left a loadable file" 1
    stats.Kcache.disk_hits;
  let _, rc = run_one sc_a in
  Alcotest.(check string) "store file valid after racing writers" rc rb

(* The tier stamp a default-tier session writes into its .prep headers,
   and a tier it does not write: the tests below read back what such a
   session stored, and probe cross-tier loads with the other one. *)
let default_tier () = Dpc_sim.Interp.(mode_to_string (default_mode ()))

let other_tier () = if default_tier () = "ref" then "bytecode" else "ref"

(* Keys that could escape the store directory are refused outright. *)
let pstore_key_hygiene () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let _ = run_one ~persist:dir sc_a in
  let key =
    match
      List.filter_map
        (fun f -> Filename.chop_suffix_opt ~suffix:".prep" f)
        (Array.to_list (Sys.readdir dir))
    with
    | [ k ] -> k
    | _ -> Alcotest.fail "expected one .prep file"
  in
  let st = Pstore.create dir in
  let tier = default_tier () in
  let cfgkey = H.cfg_digest Dpc_gpu.Config.k20c in
  let prep = Option.get (Pstore.load st ~key ~tier ~cfgkey) in
  Alcotest.(check bool) "traversal key refused on store" false
    (Pstore.store st ~key:"../evil" ~tier ~cfgkey prep);
  Alcotest.(check bool) "traversal key never loads" true
    (Option.is_none (Pstore.load st ~key:"../evil" ~tier ~cfgkey));
  (* The header's tier stamp must match the requested tier: a file
     written for one tier never answers another tier's load. *)
  Alcotest.(check bool) "other-tier load degrades to a miss" true
    (Option.is_none (Pstore.load st ~key ~tier:(other_tier ()) ~cfgkey));
  Alcotest.(check bool) "malformed tier refused on store" false
    (Pstore.store st ~key ~tier:"two words" ~cfgkey prep);
  (* Same for the config stamp: a file written under one preset never
     answers a load for another. *)
  let deep = H.cfg_digest Dpc_gpu.Config.k20c_deep in
  Alcotest.(check bool) "other-preset load degrades to a miss" true
    (Option.is_none (Pstore.load st ~key ~tier ~cfgkey:deep));
  Alcotest.(check bool) "malformed cfg digest refused on store" false
    (Pstore.store st ~key ~tier ~cfgkey:"not hex!" prep)

(* The verifier is the Pstore trust boundary.  The degrade matrix: a
   decodable .prep whose payload fails re-verification (a planted
   lint-bad body — valid header, valid digest), a tier-mismatched v2
   stream, and a verifier that itself raises must all degrade to a
   re-prepare with byte-identical metrics — never a crash, never an
   executed stale program — and the semantic rejections bump
   [verify_rejects], not [load_failures].  (A truncated FUSE quad cannot
   reach a stored .prep — streams are re-derived from KIR at load — so
   that leg of the matrix lives in the direct bytecode-verifier units in
   test_check.ml.) *)
let pstore_verify_degrade_matrix () =
  with_temp_dir "dpc-pstore" @@ fun dir ->
  let _, ra = run_one ~persist:dir sc_a in
  let key =
    match
      List.filter_map
        (fun f -> Filename.chop_suffix_opt ~suffix:".prep" f)
        (Array.to_list (Sys.readdir dir))
    with
    | [ k ] -> k
    | _ -> Alcotest.fail "expected one .prep file"
  in
  let tier = default_tier () in
  let cfgkey = H.cfg_digest Dpc_gpu.Config.k20c in
  (* Plant a semantically bad prep under the real key: the header and
     digest are valid (a raw verify-less store wrote it), but the body's
     kernel puts a barrier under a thread-divergent branch — something
     only the semantic verifier can catch. *)
  let raw = Pstore.create dir in
  let good = Option.get (Pstore.load raw ~key ~tier ~cfgkey) in
  let bad_prog =
    let open Dpc_kir.Build in
    let prog = Dpc_kir.Kernel.Program.create () in
    Dpc_kir.Kernel.Program.add prog
      (kernel ~name:good.H.p_entry ~params:[ p "n" ]
         [ if_then (tid <: v "n") [ sync ] ]);
    Dpc_kir.Kernel.Program.finalize prog;
    prog
  in
  Alcotest.(check bool) "planted bad prep stored" true
    (Pstore.store raw ~key ~tier ~cfgkey { good with H.p_prog = bad_prog });
  let sb, rb = run_one ~persist:dir sc_a in
  let cs = Session.cache_stats sb in
  let ps = Option.get (Session.persist_stats sb) in
  Alcotest.(check int) "planted: verifier rejected it" 1
    ps.Pstore.verify_rejects;
  Alcotest.(check int) "planted: decode itself was fine" 0
    ps.Pstore.load_failures;
  Alcotest.(check int) "planted: no disk hit" 0 cs.Kcache.disk_hits;
  Alcotest.(check int) "planted: re-prepared fresh" 1 cs.Kcache.misses;
  Alcotest.(check string) "planted: metrics byte-identical" ra rb;
  (* That re-prepare re-published a good file.  A tier-mismatched load is
     refused by the header guard before the verifier is ever consulted. *)
  let consulted = ref false in
  let vetting =
    Pstore.create
      ~verify:(fun ~tier:_ _ ->
        consulted := true;
        Ok ())
      dir
  in
  Alcotest.(check bool) "good file loads through the verifier" true
    (Option.is_some (Pstore.load vetting ~key ~tier ~cfgkey));
  Alcotest.(check bool) "verifier consulted on tier match" true !consulted;
  consulted := false;
  Alcotest.(check bool) "tier-mismatched stream never loads" true
    (Option.is_none (Pstore.load vetting ~key ~tier:(other_tier ()) ~cfgkey));
  Alcotest.(check bool) "tier mismatch short-circuits the verifier" false
    !consulted;
  (* A verifier that raises is contained: ordinary miss, counted as a
     verify reject, not a decode failure. *)
  let throwing =
    Pstore.create ~verify:(fun ~tier:_ _ -> failwith "boom") dir
  in
  Alcotest.(check bool) "throwing verifier degrades to a miss" true
    (Option.is_none (Pstore.load throwing ~key ~tier ~cfgkey));
  Alcotest.(check int) "exception counted as verify reject" 1
    (Pstore.stats throwing).Pstore.verify_rejects;
  Alcotest.(check int) "exception is not a decode failure" 0
    (Pstore.stats throwing).Pstore.load_failures

(* --- the daemon ------------------------------------------------------------- *)

let with_server ?(configure = fun c -> c) f =
  with_temp_dir "dpc-serve" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    configure
      (Server.config ~cache_dir:(Some (Filename.concat dir "cache")) sock)
  in
  let server = Server.create cfg in
  let dom = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Domain.join dom)
    (fun () -> f ~sock ~server)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* The tentpole identity: a daemon-served sweep streams records that are
   byte-wise the ones a direct session run exports, and a second request
   (from a new connection) runs entirely from the warm cache. *)
let server_sweep_identity () =
  let scs = [ sc_a; sc_b ] in
  let direct = Session.create () in
  let expect = List.map outcome_str (Session.run_all direct scs) in
  with_server @@ fun ~sock ~server:_ ->
  let run_once () =
    Client.with_connection sock @@ fun c ->
    let r = ok_or_fail "sweep" (Client.sweep c scs) in
    Alcotest.(check int) "all scenarios ran" (List.length scs) r.Client.runs;
    Alcotest.(check int) "none failed" 0 r.Client.failed;
    Alcotest.(check bool) "not timed out" false r.Client.timed_out;
    List.map Json.to_string r.Client.outcomes
  in
  let first = run_once () in
  List.iter2
    (Alcotest.(check string) "served record byte-identical to direct run")
    expect first;
  let second = run_once () in
  List.iter2 (Alcotest.(check string) "second request identical") expect second;
  (* The second request was served from the warm in-memory cache. *)
  Client.with_connection sock @@ fun c ->
  let stats = ok_or_fail "stats" (Client.stats c) in
  let cache = Option.get (Json.member "cache" stats) in
  let hits = Json.to_int (Option.get (Json.member "hits" cache)) in
  Alcotest.(check bool) "warm cache hits observed" true (hits > 0);
  (* Each scenario's inputs were built by the first request and reused
     by the second. *)
  let inputs = Option.get (Json.member "inputs" stats) in
  let count k = Json.to_int (Option.get (Json.member k inputs)) in
  Alcotest.(check (list int)) "input builds, hits, entries" [ 2; 2; 2 ]
    [ count "builds"; count "hits"; count "entries" ];
  (* The memmodel totals are present, and stay zero for the
     features-off default preset these sweeps ran under. *)
  let mm = Option.get (Json.member "memmodel" stats) in
  Alcotest.(check int) "k20c sweeps accumulate no bank replays" 0
    (Json.to_int (Option.get (Json.member "bank_conflict_replays" mm)));
  Alcotest.(check int) "k20c sweeps accumulate no mshr stalls" 0
    (Json.to_int (Option.get (Json.member "mshr_stalls" mm)))

(* Failures are per-request: quota refusals, over-budget sweeps and
   malformed lines answer with error/timeout events and the daemon keeps
   serving. *)
let server_isolation () =
  with_server ~configure:(fun c -> { c with Server.max_scenarios = 1 })
  @@ fun ~sock ~server:_ ->
  (* Quota: two scenarios against a one-scenario server. *)
  (Client.with_connection sock @@ fun c ->
   match Client.sweep c [ sc_a; sc_b ] with
   | Ok _ -> Alcotest.fail "over-quota sweep must be refused"
   | Error msg ->
     Alcotest.(check bool) "refusal names the quota" true
       (String.length msg >= 5 && String.sub msg 0 5 = "quota"));
  (* Timeout: a zero budget skips everything and reports timed_out. *)
  (Client.with_connection sock @@ fun c ->
   let r = ok_or_fail "timed-out sweep" (Client.sweep ~timeout_s:0. c [ sc_a ]) in
   Alcotest.(check bool) "request timed out" true r.Client.timed_out;
   Alcotest.(check int) "nothing ran" 0 r.Client.runs;
   Alcotest.(check int) "scenario skipped" 1 r.Client.skipped);
  (* Garbage on the wire answers with a bad-request error event. *)
  (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
   Fun.protect
     ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
     (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX sock);
       let msg = Bytes.of_string "this is not json\n" in
       ignore (Unix.write fd msg 0 (Bytes.length msg));
       let buf = Bytes.create 4096 in
       let n = Unix.read fd buf 0 (Bytes.length buf) in
       match
         Protocol.event_of_string (String.trim (Bytes.sub_string buf 0 n))
       with
       | Ok (Protocol.Error_event e) ->
         Alcotest.(check string) "garbage answered with bad-request"
           "bad-request" e.code
       | other ->
         Alcotest.failf "expected a bad-request event, got %s"
           (match other with
           | Ok _ -> "another event"
           | Error m -> "unparseable reply: " ^ m)));
  (* The daemon survived all of the above. *)
  Client.with_connection sock @@ fun c ->
  ok_or_fail "ping after failures" (Client.ping c);
  let r = ok_or_fail "sweep after failures" (Client.sweep c [ sc_a ]) in
  Alcotest.(check int) "daemon still serves" 1 r.Client.runs

(* A peer that streams an unterminated line past the frame limit gets one
   frame-too-long error and a close, and costs a concurrent well-behaved
   client nothing: its sweep, made while the oversized line is half
   sent, is byte-identical to a direct run. *)
let server_oversized_frame () =
  let expect =
    List.map outcome_str (Session.run_all (Session.create ()) [ sc_a ])
  in
  with_server @@ fun ~sock ~server:_ ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      (* a daemon that kept buffering would never answer: fail, not hang *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      let chunk = Bytes.make 65536 'x' in
      let write_bytes n =
        let left = ref n in
        try
          while !left > 0 do
            let k = Int.min !left (Bytes.length chunk) in
            left := !left - Unix.write fd chunk 0 k
          done
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      let half = Framing.max_frame / 2 in
      write_bytes half;
      let served =
        Client.with_connection sock @@ fun c ->
        let r =
          ok_or_fail "sweep beside an oversized line"
            (Client.sweep c [ sc_a ])
        in
        List.map Json.to_string r.Client.outcomes
      in
      List.iter2
        (Alcotest.(check string) "concurrent client byte-identical")
        expect served;
      write_bytes (Framing.max_frame - half + 1);
      let reply = Buffer.create 256 in
      let buf = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes reply buf 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      match Protocol.event_of_string (String.trim (Buffer.contents reply)) with
      | Ok (Protocol.Error_event e) ->
        Alcotest.(check string) "oversized line answered" "frame-too-long"
          e.code
      | Ok _ -> Alcotest.fail "expected a frame-too-long error event"
      | Error m -> Alcotest.failf "unparseable reply: %s" m);
  (* the daemon keeps serving, with identical results *)
  Client.with_connection sock @@ fun c ->
  let r = ok_or_fail "sweep after the close" (Client.sweep c [ sc_a ]) in
  List.iter2
    (Alcotest.(check string) "later client byte-identical")
    expect
    (List.map Json.to_string r.Client.outcomes)

(* Two clients sweeping concurrently (from two domains): the server
   interleaves them and both streams complete with identical records. *)
let server_concurrent_clients () =
  let scs = [ sc_a; sc_b ] in
  with_server @@ fun ~sock ~server:_ ->
  let sweep_strings () =
    Client.with_connection sock @@ fun c ->
    match Client.sweep c scs with
    | Error e -> Error e
    | Ok r -> Ok (List.map Json.to_string r.Client.outcomes)
  in
  let doms = List.init 2 (fun _ -> Domain.spawn sweep_strings) in
  match List.map Domain.join doms with
  | [ Ok a; Ok b ] ->
    List.iter2
      (Alcotest.(check string) "concurrent clients see identical records")
      a b
  | results ->
    List.iter (function Error e -> Alcotest.failf "client failed: %s" e | Ok _ -> ()) results

(* The shutdown verb drains and exits: the run loop returns and the
   socket path is removed. *)
let server_shutdown_verb () =
  with_temp_dir "dpc-serve" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let server = Server.create (Server.config sock) in
  let dom = Domain.spawn (fun () -> Server.run server) in
  Alcotest.(check bool) "daemon came up" true (Client.wait_ready sock);
  (Client.with_connection sock @@ fun c ->
   ok_or_fail "shutdown" (Client.shutdown c));
  Domain.join dom;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists sock)

(* A second daemon refuses to steal a live socket, but replaces a stale
   socket file. *)
let server_socket_claim () =
  with_temp_dir "dpc-serve" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let server = Server.create (Server.config sock) in
  let dom = Domain.spawn (fun () -> Server.run server) in
  Alcotest.(check bool) "daemon came up" true (Client.wait_ready sock);
  (match Server.create (Server.config sock) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "second daemon must refuse a live socket");
  Server.request_stop server;
  Domain.join dom;
  (* Simulate a crash leaving a stale socket file behind. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists sock);
  let server2 = Server.create (Server.config sock) in
  let dom2 = Domain.spawn (fun () -> Server.run server2) in
  Alcotest.(check bool) "stale socket replaced" true (Client.wait_ready sock);
  Server.request_stop server2;
  Domain.join dom2

let suite =
  [
    Alcotest.test_case "framing reassembly" `Quick framing_reassembly;
    Alcotest.test_case "framing byte-at-a-time" `Quick framing_byte_at_a_time;
    Alcotest.test_case "framing bounded" `Quick framing_bounded;
    Alcotest.test_case "protocol request roundtrip" `Quick
      protocol_request_roundtrip;
    Alcotest.test_case "protocol event roundtrip" `Quick
      protocol_event_roundtrip;
    Alcotest.test_case "pstore roundtrip" `Quick pstore_roundtrip;
    Alcotest.test_case "pstore warm identity across apps" `Slow
      pstore_warm_identity_suite;
    Alcotest.test_case "pstore rejects bad files" `Quick
      pstore_rejects_bad_files;
    Alcotest.test_case "pstore concurrent writers" `Quick
      pstore_concurrent_writers;
    Alcotest.test_case "pstore key hygiene" `Quick pstore_key_hygiene;
    Alcotest.test_case "pstore verify degrade matrix" `Quick
      pstore_verify_degrade_matrix;
    Alcotest.test_case "server sweep identity" `Quick server_sweep_identity;
    Alcotest.test_case "server isolates failures" `Quick server_isolation;
    Alcotest.test_case "server concurrent clients" `Quick
      server_concurrent_clients;
    Alcotest.test_case "server oversized frame" `Quick server_oversized_frame;
    Alcotest.test_case "server shutdown verb" `Quick server_shutdown_verb;
    Alcotest.test_case "server socket claim" `Quick server_socket_claim;
  ]
