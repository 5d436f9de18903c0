(* Tests for Dpc_util: RNG determinism, Vec, Stats, Table. *)

open Dpc_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17);
    let w = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (w >= 5 && w <= 9)
  done

let test_rng_power_law_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.power_law r ~lo:1 ~hi:100 ~alpha:2.0 in
    Alcotest.(check bool) "in [1,100]" true (v >= 1 && v <= 100)
  done

let test_rng_power_law_skew () =
  (* With alpha = 2 the head must be much heavier than the tail. *)
  let r = Rng.create 3 in
  let small = ref 0 and large = ref 0 in
  for _ = 1 to 10_000 do
    let v = Rng.power_law r ~lo:1 ~hi:1000 ~alpha:2.0 in
    if v <= 10 then incr small;
    if v >= 500 then incr large
  done;
  Alcotest.(check bool) "head heavier than tail" true (!small > 10 * !large)

let test_rng_split_independent () =
  let r = Rng.create 1 in
  let r2 = Rng.split r in
  let x = Rng.int r 1000 and y = Rng.int r2 1000 in
  Alcotest.(check bool) "streams differ (probabilistically)" true
    (x <> y || Rng.int r 1000 <> Rng.int r2 1000)

let test_rng_shuffle_permutation () =
  let r = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "pop" (99 * 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_iter_order () =
  let v = Vec.of_array ~dummy:0 [| 3; 1; 4; 1; 5 |] in
  let out = ref [] in
  Vec.iter (fun x -> out := x :: !out) v;
  Alcotest.(check (list int)) "order" [ 3; 1; 4; 1; 5 ] (List.rev !out)

let test_stats_mean_geomean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" 1.0
    (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (Stats.stddev [ 5.0 ])

let test_histogram_bucket_boundaries () =
  (* 4 buckets over [0, 8]: width 2, boundaries at 2/4/6, and the top
     edge is inclusive — a sample equal to [hi] lands in the last
     bucket instead of being dropped. *)
  let counts =
    Stats.histogram ~buckets:4 ~lo:0 ~hi:8 [ 0; 1; 2; 3; 4; 6; 7; 8 ]
  in
  Alcotest.(check (array int)) "boundaries" [| 2; 2; 1; 3 |] counts;
  (* Out-of-range samples are still dropped on both sides. *)
  let counts = Stats.histogram ~buckets:4 ~lo:0 ~hi:8 [ -1; 9; 8; 0 ] in
  Alcotest.(check (array int)) "out of range dropped" [| 1; 0; 0; 1 |] counts

let test_histogram_all_samples_counted () =
  (* Every in-range sample lands in exactly one bucket. *)
  let samples = List.init 101 Fun.id in
  let counts = Stats.histogram ~buckets:7 ~lo:0 ~hi:100 samples in
  Alcotest.(check int) "total preserved" 101
    (Array.fold_left ( + ) 0 counts)

let test_table_render () =
  let t =
    Table.create ~title:"t" ~headers:[ "a"; "b" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0
    && String.sub s 0 7 = "=== t =");
  Alcotest.(check int) "row count" 2 (List.length (Table.rows t))

let test_table_arity_check () =
  let t = Table.create ~title:"t" ~headers:[ "a"; "b" ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng power-law bounds" `Quick test_rng_power_law_bounds;
    Alcotest.test_case "rng power-law skew" `Quick test_rng_power_law_skew;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "vec push/get/pop" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec iter order" `Quick test_vec_iter_order;
    Alcotest.test_case "stats mean/geomean" `Quick test_stats_mean_geomean;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "histogram boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "histogram totals" `Quick
      test_histogram_all_samples_counted;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
  ]
