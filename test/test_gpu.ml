(* Tests for the GPU model substrate: device config math and the simulated
   global memory. *)

module Cfg = Dpc_gpu.Config
module Mem = Dpc_gpu.Memory

let cfg = Cfg.k20c

let test_warps_per_block () =
  Alcotest.(check int) "1 thread" 1 (Cfg.warps_per_block cfg ~block_dim:1);
  Alcotest.(check int) "32" 1 (Cfg.warps_per_block cfg ~block_dim:32);
  Alcotest.(check int) "33" 2 (Cfg.warps_per_block cfg ~block_dim:33);
  Alcotest.(check int) "1024" 32 (Cfg.warps_per_block cfg ~block_dim:1024)

let test_blocks_per_smx () =
  (* 256-thread blocks: 8 warps each, 64-warp limit -> 8 blocks *)
  Alcotest.(check int) "256" 8 (Cfg.blocks_per_smx cfg ~block_dim:256);
  (* 32-thread blocks: warp limit would allow 64, block limit caps at 16 *)
  Alcotest.(check int) "32" 16 (Cfg.blocks_per_smx cfg ~block_dim:32);
  (* 1024-thread blocks: 32 warps -> 2 *)
  Alcotest.(check int) "1024" 2 (Cfg.blocks_per_smx cfg ~block_dim:1024)

let test_device_fill () =
  Alcotest.(check int) "fill 256" (13 * 8)
    (Cfg.device_fill_blocks cfg ~block_dim:256)

(* Physical elements behind [b]: 0 until its first write. *)
let resident (b : Mem.buf) =
  match b.Mem.data with Mem.I a -> Array.length a | Mem.F a -> Array.length a

(* A zero-filled buffer reads as zero, across types, without storage. *)
let test_mem_alloc_zeroed () =
  let m = Mem.create () in
  let b = Mem.alloc_int m ~name:"z" 100 in
  Alcotest.(check int) "zeroed" 0 (Mem.read_int b 99);
  Alcotest.(check (float 0.0)) "zeroed, read as float" 0.0
    (Mem.read_float b 99);
  let f = Mem.alloc_float m ~name:"zf" 10 in
  Alcotest.(check (float 0.0)) "zeroed float" 0.0 (Mem.read_float f 0);
  Alcotest.(check int) "zeroed float, read as int" 0 (Mem.read_int f 9);
  Alcotest.(check int) "logical length" 100 (Mem.buf_length b);
  Alcotest.(check int) "reads allocate nothing" 0 (resident b + resident f)

let test_mem_base_alignment () =
  let m = Mem.create () in
  let a = Mem.alloc_int m ~name:"a" 3 in
  let b = Mem.alloc_int m ~name:"b" 3 in
  Alcotest.(check int) "a aligned" 0 (a.Mem.base mod 128);
  Alcotest.(check int) "b aligned" 0 (b.Mem.base mod 128);
  Alcotest.(check bool) "disjoint" true
    (b.Mem.base >= a.Mem.base + (3 * Mem.elem_bytes))

(* The message names the logical element count with or without storage,
   and a refused write gives the buffer none. *)
let test_mem_bounds () =
  let m = Mem.create () in
  let b = Mem.alloc_int m ~name:"b" 4 in
  let oob i =
    Mem.Out_of_bounds (Printf.sprintf "buffer \"b\" (4 elements): index %d" i)
  in
  Alcotest.check_raises "read oob" (oob 4) (fun () ->
      ignore (Mem.read_int b 4));
  Alcotest.check_raises "negative" (oob (-1)) (fun () ->
      Mem.write_int b (-1) 0);
  Alcotest.check_raises "write oob" (oob 4) (fun () ->
      Mem.write_float b 4 1.0);
  Alcotest.(check int) "refused writes allocate nothing" 0 (resident b);
  Mem.write_int b 0 1;
  Alcotest.check_raises "read oob, with storage" (oob 4) (fun () ->
      ignore (Mem.read_float b 4));
  Alcotest.check_raises "write oob, with storage" (oob 4) (fun () ->
      Mem.write_int b 4 1)

let test_mem_type_coercion () =
  let m = Mem.create () in
  let b = Mem.alloc_float m ~name:"f" 2 in
  Mem.write_int b 0 3;
  Alcotest.(check (float 1e-9)) "int into float buffer" 3.0 (Mem.read_float b 0)

let test_mem_roundtrip_arrays () =
  let m = Mem.create () in
  let b = Mem.of_int_array m ~name:"x" [| 5; 6; 7 |] in
  Alcotest.(check (array int)) "contents" [| 5; 6; 7 |] (Mem.int_contents b)

let test_mem_addr () =
  let m = Mem.create () in
  let b = Mem.alloc_int m ~name:"a" 10 in
  Alcotest.(check int) "stride 4" (Mem.addr b 0 + 4) (Mem.addr b 1)

let test_mem_first_write_materializes () =
  let m = Mem.create () in
  let b = Mem.alloc_int m ~name:"w" 5 in
  Mem.write_float b 2 7.9;
  Alcotest.(check int) "full storage" 5 (resident b);
  Alcotest.(check (array int)) "written element, zeros elsewhere"
    [| 0; 0; 7; 0; 0 |] (Mem.int_contents b);
  Alcotest.(check int) "length unchanged" 5 (Mem.buf_length b)

let test_mem_contents_untouched () =
  let m = Mem.create () in
  let bi = Mem.alloc_int m ~name:"ci" 4 in
  let bf = Mem.alloc_float m ~name:"cf" 3 in
  let zi = Mem.int_contents bi in
  Alcotest.(check (array int)) "int zeros" [| 0; 0; 0; 0 |] zi;
  Alcotest.(check (array (float 0.0))) "float zeros" [| 0.0; 0.0; 0.0 |]
    (Mem.float_contents bf);
  Alcotest.(check int) "read-back allocates nothing" 0
    (resident bi + resident bf);
  zi.(0) <- 9;
  Alcotest.(check int) "a fresh copy" 0 (Mem.read_int bi 0)

(* Model: any sequence of reads, writes, read-modify-write atomics and
   read-backs on a buffer that starts without storage matches the same
   sequence on one filled with zeros up front, values and exceptions
   alike. *)
type op =
  | Read_int of int
  | Read_float of int
  | Write_int of int * int
  | Write_float of int * float
  | Atomic_add of int * int
  | Contents

let show_op = function
  | Read_int i -> Printf.sprintf "read_int %d" i
  | Read_float i -> Printf.sprintf "read_float %d" i
  | Write_int (i, v) -> Printf.sprintf "write_int %d %d" i v
  | Write_float (i, v) -> Printf.sprintf "write_float %d %h" i v
  | Atomic_add (i, v) -> Printf.sprintf "atomic_add %d %d" i v
  | Contents -> "contents"

let apply b op =
  let join f a = String.concat "," (Array.to_list (Array.map f a)) in
  match
    match op with
    | Read_int i -> string_of_int (Mem.read_int b i)
    | Read_float i -> Printf.sprintf "%h" (Mem.read_float b i)
    | Write_int (i, v) -> Mem.write_int b i v; ""
    | Write_float (i, v) -> Mem.write_float b i v; ""
    | Atomic_add (i, v) ->
      let old = Mem.read_int b i in
      Mem.write_int b i (old + v);
      string_of_int old
    | Contents -> (
      match b.Mem.data with
      | Mem.I _ -> join string_of_int (Mem.int_contents b)
      | Mem.F _ -> join (Printf.sprintf "%h") (Mem.float_contents b))
  with
  | r -> r
  | exception Mem.Out_of_bounds m -> "raise " ^ m

let prop_lazy_matches_eager =
  let len = 6 in
  let idx = QCheck.Gen.int_range (-2) (len + 1) in
  let op =
    QCheck.Gen.(
      oneof
        [ map (fun i -> Read_int i) idx;
          map (fun i -> Read_float i) idx;
          map2 (fun i v -> Write_int (i, v)) idx (int_range (-50) 50);
          map2 (fun i v -> Write_float (i, v)) idx (float_range (-50.) 50.);
          map2 (fun i v -> Atomic_add (i, v)) idx (int_range (-50) 50);
          return Contents ])
  in
  QCheck.Test.make ~count:300
    ~name:"untouched buffer matches a zero-filled one"
    QCheck.(
      pair bool
        (make ~print:(fun l -> String.concat "; " (List.map show_op l))
           Gen.(list_size (int_range 0 30) op)))
    (fun (float_buf, ops) ->
      let m = Mem.create () in
      let lazy_b, eager_b =
        if float_buf then
          (Mem.alloc_float m ~name:"b" len,
           Mem.of_float_array m ~name:"b" (Array.make len 0.0))
        else
          (Mem.alloc_int m ~name:"b" len,
           Mem.of_int_array m ~name:"b" (Array.make len 0))
      in
      List.for_all (fun op -> apply lazy_b op = apply eager_b op) ops
      && apply lazy_b Contents = apply eager_b Contents)

(* Property: allocations never overlap. *)
let prop_no_overlap =
  QCheck.Test.make ~count:100 ~name:"allocations never overlap"
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 300))
    (fun sizes ->
      let m = Mem.create () in
      let bufs =
        List.mapi (fun i n -> Mem.alloc_int m ~name:(string_of_int i) n) sizes
      in
      let ranges =
        List.map
          (fun (b : Mem.buf) ->
            (b.Mem.base, b.Mem.base + (Mem.buf_length b * Mem.elem_bytes)))
          bufs
      in
      List.for_all
        (fun (lo1, hi1) ->
          List.for_all
            (fun (lo2, hi2) -> hi1 <= lo2 || hi2 <= lo1 || (lo1, hi1) = (lo2, hi2))
            ranges)
        ranges)

let suite =
  [
    Alcotest.test_case "warps per block" `Quick test_warps_per_block;
    Alcotest.test_case "blocks per smx" `Quick test_blocks_per_smx;
    Alcotest.test_case "device fill" `Quick test_device_fill;
    Alcotest.test_case "alloc zeroed" `Quick test_mem_alloc_zeroed;
    Alcotest.test_case "base alignment" `Quick test_mem_base_alignment;
    Alcotest.test_case "bounds" `Quick test_mem_bounds;
    Alcotest.test_case "type coercion" `Quick test_mem_type_coercion;
    Alcotest.test_case "array roundtrip" `Quick test_mem_roundtrip_arrays;
    Alcotest.test_case "addr stride" `Quick test_mem_addr;
    Alcotest.test_case "first write materializes" `Quick
      test_mem_first_write_materializes;
    Alcotest.test_case "untouched contents" `Quick test_mem_contents_untouched;
    QCheck_alcotest.to_alcotest prop_lazy_matches_eager;
    QCheck_alcotest.to_alcotest prop_no_overlap;
  ]
