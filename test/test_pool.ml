(* Tests for the Domain worker pool: ordering, exception propagation,
   the cost-ordered scheduler's contract (identical results, expensive
   tasks claimed first, deterministic lowest-index failure reporting)
   and — the property the experiment harness depends on — byte-identical
   figure tables at any job count. *)

module Pool = Dpc_util.Pool
module Suite = Dpc_experiments.Suite
module Figs = Dpc_experiments.Figs7_10
module R = Dpc_apps.Registry
module Table = Dpc_util.Table

let test_create_validates () =
  Alcotest.check_raises "jobs >= 1"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

let test_sched_strings () =
  Alcotest.(check string) "shared" "shared" (Pool.sched_to_string Pool.Shared);
  Alcotest.(check string) "steal" "steal" (Pool.sched_to_string Pool.Steal);
  Alcotest.(check bool) "roundtrip" true
    (Pool.sched_of_string "Steal" = Pool.Steal
    && Pool.sched_of_string "shared" = Pool.Shared);
  Alcotest.check_raises "unknown rejected"
    (Invalid_argument "bad pool scheduler \"lifo\" (expected shared or steal)")
    (fun () -> ignore (Pool.sched_of_string "lifo"))

let test_map_empty () =
  let p = Pool.create ~jobs:4 () in
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map p succ [])

let test_map_order_preserved () =
  (* More tasks than workers, with the later tasks much cheaper: results
     must still come back in submission order. *)
  let p = Pool.create ~jobs:4 () in
  let xs = List.init 100 Fun.id in
  let f i =
    if i < 4 then ignore (Sys.opaque_identity (Array.make 10_000 i));
    i * i
  in
  Alcotest.(check (list int)) "ordered" (List.map f xs)
    (Pool.parallel_map p f xs)

let test_iter_runs_all_tasks () =
  let p = Pool.create ~jobs:3 () in
  let hits = Atomic.make 0 in
  Pool.parallel_iter p
    (fun k -> ignore (Atomic.fetch_and_add hits k))
    (List.init 50 Fun.id);
  Alcotest.(check int) "sum of indices" (50 * 49 / 2) (Atomic.get hits)

let test_exception_propagates () =
  let p = Pool.create ~jobs:4 () in
  Alcotest.check_raises "worker failure re-raised" (Failure "task 17")
    (fun () ->
      ignore
        (Pool.parallel_map p
           (fun i -> if i = 17 then failwith "task 17" else i)
           (List.init 40 Fun.id)))

let test_serial_path_identical () =
  let f i = (i * 7919) mod 997 in
  let xs = List.init 64 Fun.id in
  let serial = Pool.parallel_map (Pool.create ~jobs:1 ()) f xs in
  let parallel = Pool.parallel_map (Pool.create ~jobs:5 ()) f xs in
  Alcotest.(check (list int)) "jobs-independent" serial parallel

(* The QCheck form of the contract: parallel_map is List.map. *)
let prop_map_equals_list_map =
  QCheck.Test.make ~count:50 ~name:"parallel_map = List.map"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (x * 31) lxor 5 in
      Pool.parallel_map (Pool.create ~jobs ()) f xs = List.map f xs)

(* Same contract for the cost-ordered scheduler, with an arbitrary cost
   estimate: estimates steer scheduling only, never results or order. *)
let prop_steal_map_equals_list_map =
  QCheck.Test.make ~count:50 ~name:"steal parallel_map = List.map"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (x * 31) lxor 5 in
      let cost x = float_of_int ((abs x mod 7) + 1) in
      Pool.parallel_map ~cost
        (Pool.create ~sched:Pool.Steal ~jobs ())
        f xs
      = List.map f xs)

let test_steal_order_preserved () =
  (* Skewed costs reverse the execution order (LPT runs the expensive
     tail first), but the result list must stay in submission order. *)
  let p = Pool.create ~sched:Pool.Steal ~jobs:4 () in
  let xs = List.init 100 Fun.id in
  let cost i = float_of_int (i * i) in
  let f i = i * 3 in
  Alcotest.(check (list int)) "ordered" (List.map f xs)
    (Pool.parallel_map ~cost p f xs)

(* Each task records its start position through one atomic sequence.
   The first [jobs] tasks to start wait (deadline-guarded) until every
   worker has started one, so no worker can start a second task before
   each worker's first claim is recorded: the first [jobs] start
   positions belong exactly to the first [jobs] claims.  Costs grow
   with the index: [Steal] must claim the most expensive task, submitted
   last, in that first wave; [Shared] claims in submission order and
   ignores the estimate, so task 0 (the cheapest) is in it. *)
let test_claim_order () =
  let jobs = 3 and n = 12 in
  let cost i = float_of_int i in
  let check sched first =
    let seq = Atomic.make 0 in
    let starts = Array.make n (-1) in
    let f i =
      starts.(i) <- Atomic.fetch_and_add seq 1;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get seq < jobs && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.0005
      done;
      i
    in
    let xs = List.init n Fun.id in
    Alcotest.(check (list int)) "order" xs
      (Pool.parallel_map ~cost (Pool.create ~sched ~jobs ()) f xs);
    Alcotest.(check bool)
      (Printf.sprintf "%s: task %d in the first wave"
         (Pool.sched_to_string sched) first)
      true
      (starts.(first) >= 0 && starts.(first) < jobs)
  in
  check Pool.Steal (n - 1);
  check Pool.Shared 0

(* Two tasks rendezvous on an atomic so they are guaranteed to be
   in-flight simultaneously, then both raise.  Whatever the claim timing,
   the pool must report the lowest-indexed one.  The deadline guard keeps
   the test finite if a scheduler ever ran both on one worker. *)
let test_lowest_failure_concurrent () =
  let check sched =
    let p = Pool.create ~sched ~jobs:2 () in
    for _ = 1 to 3 do
      let arrived = Atomic.make 0 in
      let f i =
        if i = 5 || i = 17 then begin
          Atomic.incr arrived;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.0005
          done;
          failwith (Printf.sprintf "task %d" i)
        end;
        i
      in
      Alcotest.check_raises
        (Pool.sched_to_string sched ^ ": lowest index reported")
        (Failure "task 5")
        (fun () -> ignore (Pool.parallel_map p f (List.init 40 Fun.id)))
    done
  in
  check Pool.Shared;
  check Pool.Steal

let test_lowest_failure_unclaimed () =
  (* The cost-ordered scheduler runs the most expensive task first; it
     fails immediately, while a cheaper, lower-indexed task that would
     also fail is still unclaimed.  The cleanup pass must find it: the
     reported error names the lowest-indexed failing task even though it
     had not run when the pool went down. *)
  let p = Pool.create ~sched:Pool.Steal ~jobs:2 () in
  let cost i = if i = 25 then 1000. else 1. in
  let f i =
    if i = 25 then failwith "task 25";
    Unix.sleepf 0.001;
    if i = 3 then failwith "task 3";
    i
  in
  Alcotest.check_raises "unclaimed lower failure reported" (Failure "task 3")
    (fun () ->
      ignore (Pool.parallel_map ~cost p f (List.init 40 Fun.id)))

(* Figure tables must be byte-identical at any job count.  Runs the
   fig7/fig8 pipeline end-to-end on the three node-count-scaled apps (the
   registry's scale semantics differ per app, so the full-suite identity
   check lives in bin/experiments.exe --jobs). *)
let test_fig7_tables_jobs_identical () =
  let apps = [ R.sssp; R.spmv; R.pagerank ] in
  let collect jobs =
    Suite.collect ~verbose:false ~scale:500 ~jobs ~apps ()
  in
  let s1 = collect 1 and s4 = collect 4 in
  Alcotest.(check string) "fig7 byte-identical"
    (Table.render (Figs.fig7 s1))
    (Table.render (Figs.fig7 s4));
  Alcotest.(check string) "fig8 byte-identical"
    (Table.render (Figs.fig8 s1))
    (Table.render (Figs.fig8 s4))

let suite =
  [
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
    Alcotest.test_case "sched codecs" `Quick test_sched_strings;
    Alcotest.test_case "map empty" `Quick test_map_empty;
    Alcotest.test_case "map order" `Quick test_map_order_preserved;
    Alcotest.test_case "iter all tasks" `Quick test_iter_runs_all_tasks;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "serial/parallel identical" `Quick
      test_serial_path_identical;
    QCheck_alcotest.to_alcotest prop_map_equals_list_map;
    QCheck_alcotest.to_alcotest prop_steal_map_equals_list_map;
    Alcotest.test_case "steal order preserved" `Quick
      test_steal_order_preserved;
    Alcotest.test_case "claim order" `Quick test_claim_order;
    Alcotest.test_case "concurrent failures: lowest wins" `Quick
      test_lowest_failure_concurrent;
    Alcotest.test_case "unclaimed lower failure wins" `Quick
      test_lowest_failure_unclaimed;
    Alcotest.test_case "fig7/fig8 tables jobs-identical" `Slow
      test_fig7_tables_jobs_identical;
  ]
