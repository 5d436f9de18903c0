(* Tests for the device-heap allocators. *)

module Alloc = Dpc_alloc.Allocator
module Mem = Dpc_gpu.Memory

let test_pool_cheaper_than_default () =
  let m = Mem.create () in
  let pool = Alloc.create Alloc.Pool in
  let dflt = Alloc.create Alloc.Default in
  let _, cp = Alloc.alloc pool m ~name:"p" ~count:64 in
  let _, cd = Alloc.alloc dflt m ~name:"d" ~count:64 in
  Alcotest.(check bool) "pool is much cheaper" true (cp * 10 < cd)

let test_contention_grows_cost () =
  let m = Mem.create () in
  let dflt = Alloc.create Alloc.Default in
  let _, c0 = Alloc.alloc ~contention:0 dflt m ~name:"a" ~count:8 in
  let _, c9 = Alloc.alloc ~contention:9 dflt m ~name:"b" ~count:8 in
  Alcotest.(check bool) "queueing adds cost" true (c9 > c0);
  (* The pool has no lock queue. *)
  let pool = Alloc.create Alloc.Pool in
  let _, p0 = Alloc.alloc ~contention:0 pool m ~name:"c" ~count:8 in
  let _, p9 = Alloc.alloc ~contention:9 pool m ~name:"d" ~count:8 in
  Alcotest.(check int) "pool immune to contention" p0 p9

let test_pool_capacity_and_fallback () =
  let m = Mem.create () in
  (* Tiny pool: 100 elements worth of bytes. *)
  let pool = Alloc.create ~pool_bytes:(100 * Mem.elem_bytes) Alloc.Pool in
  let _, c1 = Alloc.alloc pool m ~name:"a" ~count:60 in
  Alcotest.(check int) "no fallback yet" 0 (Alloc.pool_fallbacks pool);
  let _, c2 = Alloc.alloc pool m ~name:"b" ~count:60 in
  Alcotest.(check int) "fallback counted" 1 (Alloc.pool_fallbacks pool);
  Alcotest.(check bool) "fallback pays default cost" true (c2 > c1)

let test_pool_fallback_full_default_pricing () =
  let m = Mem.create () in
  let pool = Alloc.create ~pool_bytes:(100 * Mem.elem_bytes) Alloc.Pool in
  let dflt = Alloc.create Alloc.Default in
  let pooled, _ = Alloc.alloc pool m ~name:"a" ~count:100 in
  (* Exhausted: the fallback must price exactly like the default heap,
     including its (heavier) lock-queue term. *)
  let _, fb = Alloc.alloc ~contention:5 pool m ~name:"b" ~count:100 in
  let _, d = Alloc.alloc ~contention:5 dflt m ~name:"c" ~count:100 in
  Alcotest.(check int) "fallback alloc = default alloc + queue" d fb;
  (* And its free pays the default heap's release cost, while a
     pool-served buffer keeps the pool's cheap free. *)
  let fallback_buf, _ = Alloc.alloc pool m ~name:"d" ~count:100 in
  let dflt_buf, _ = Alloc.alloc dflt m ~name:"e" ~count:100 in
  Alcotest.(check int) "fallback free = default free"
    (Alloc.free dflt dflt_buf) (Alloc.free pool fallback_buf);
  Alcotest.(check bool) "pool-served free stays cheap" true
    (Alloc.free pool pooled < Alloc.free dflt (fst (Alloc.alloc dflt m ~name:"f" ~count:1)))

let test_halloc_oversize_bypasses_slabs () =
  let m = Mem.create () in
  let h = Alloc.create Alloc.Halloc in
  (* 2048 elements = 8 KB > the 4 KB slab: must not carve slabs. *)
  let big1, c1 = Alloc.alloc h m ~name:"big1" ~count:2048 in
  let _, c2 = Alloc.alloc h m ~name:"big2" ~count:2048 in
  Alcotest.(check int) "no slab-carve surcharge difference" c1 c2;
  (* Freeing an oversize buffer must not credit a phantom slab block:
     the next oversize alloc still pays the same full price. *)
  ignore (Alloc.free h big1);
  let _, c3 = Alloc.alloc h m ~name:"big3" ~count:2048 in
  Alcotest.(check int) "no phantom free block after free" c1 c3;
  (* In-slab allocations still behave as before (carve, then reuse). *)
  let small, s1 = Alloc.alloc h m ~name:"s1" ~count:16 in
  let _, s2 = Alloc.alloc h m ~name:"s2" ~count:16 in
  Alcotest.(check bool) "slab reuse unaffected" true (s2 < s1);
  ignore (Alloc.free h small)

let test_halloc_slab_reuse () =
  let m = Mem.create () in
  let h = Alloc.create Alloc.Halloc in
  (* First allocation carves a slab (extra cost); subsequent same-class
     allocations reuse it. *)
  let _, c1 = Alloc.alloc h m ~name:"a" ~count:16 in
  let _, c2 = Alloc.alloc h m ~name:"b" ~count:16 in
  Alcotest.(check bool) "slab reuse is cheaper" true (c2 < c1)

let test_halloc_free_returns_block () =
  let m = Mem.create () in
  let h = Alloc.create Alloc.Halloc in
  let b, _ = Alloc.alloc h m ~name:"a" ~count:16 in
  ignore (Alloc.free h b);
  Alcotest.(check int) "free counted" 1 (Alloc.frees h)

let test_stats () =
  let m = Mem.create () in
  let a = Alloc.create Alloc.Default in
  ignore (Alloc.alloc a m ~name:"x" ~count:10);
  ignore (Alloc.alloc a m ~name:"y" ~count:20);
  Alcotest.(check int) "allocs" 2 (Alloc.allocs a);
  Alcotest.(check int) "bytes" (30 * Mem.elem_bytes) (Alloc.bytes_served a)

let test_zero_count_clamped () =
  let m = Mem.create () in
  let a = Alloc.create Alloc.Pool in
  let b, _ = Alloc.alloc a m ~name:"z" ~count:0 in
  Alcotest.(check bool) "at least one element" true (Mem.buf_length b >= 1)

let suite =
  [
    Alcotest.test_case "pool cheaper" `Quick test_pool_cheaper_than_default;
    Alcotest.test_case "contention cost" `Quick test_contention_grows_cost;
    Alcotest.test_case "pool fallback" `Quick test_pool_capacity_and_fallback;
    Alcotest.test_case "pool fallback pricing" `Quick
      test_pool_fallback_full_default_pricing;
    Alcotest.test_case "halloc oversize" `Quick
      test_halloc_oversize_bypasses_slabs;
    Alcotest.test_case "halloc slab reuse" `Quick test_halloc_slab_reuse;
    Alcotest.test_case "halloc free" `Quick test_halloc_free_returns_block;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "zero count" `Quick test_zero_count_clamped;
  ]
