(** Simulated global (device) memory.

    Global memory is a set of named buffers of 32-bit elements (ints or
    floats).  Each buffer has a stable byte base address, 128-byte aligned,
    so the interpreter can compute the DRAM segments touched by a warp
    access and count memory transactions the way the CUDA profiler does.

    A zero-filled buffer ({!alloc_int}, {!alloc_float}) reads as zero
    but gets its storage only on its first write: until then [data] is an
    empty array of the buffer's element type and [len] alone carries its
    length.  Most of the consolidation buffers the device heap hands out
    are never written, so they cost no host memory.  Code that reads
    [data] directly must check the index against the physical array and
    fall back to the accessors below, which apply the logical length.

    Shared memory is per-block and short-lived; it is modeled separately
    inside the simulator and never appears here. *)

type data = I of int array | F of float array

type buf = {
  id : int;
  name : string;
  base : int;  (** byte address of element 0 *)
  len : int;  (** logical element count *)
  mutable data : data;  (** storage: [len] elements, or empty until written *)
}

type t = {
  bufs : buf Dpc_util.Vec.t;
  mutable next_base : int;
  mutable bytes_allocated : int;
}

let elem_bytes = 4

let dummy_buf =
  { id = -1; name = "<dummy>"; base = 0; len = 0; data = I [||] }

let create () =
  { bufs = Dpc_util.Vec.create ~dummy:dummy_buf;
    next_base = 0x1000; bytes_allocated = 0 }

let length_of_data = function I a -> Array.length a | F a -> Array.length a

let align_up v a = (v + a - 1) / a * a

let add_buf t name len data =
  let base = align_up t.next_base 128 in
  let b = { id = Dpc_util.Vec.length t.bufs; name; base; len; data } in
  Dpc_util.Vec.push t.bufs b;
  t.next_base <- base + (len * elem_bytes);
  t.bytes_allocated <- t.bytes_allocated + (len * elem_bytes);
  b

(** Allocate an integer buffer that reads as zero; storage on first write. *)
let alloc_int t ~name len = add_buf t name (Int.max 1 len) (I [||])

(** Allocate a float buffer that reads as zero; storage on first write. *)
let alloc_float t ~name len = add_buf t name (Int.max 1 len) (F [||])

let of_int_array t ~name arr =
  add_buf t name (Array.length arr) (I (Array.copy arr))

let of_float_array t ~name arr =
  add_buf t name (Array.length arr) (F (Array.copy arr))

let get_buf t id =
  if id < 0 || id >= Dpc_util.Vec.length t.bufs then
    invalid_arg (Printf.sprintf "Memory.get_buf: bad buffer id %d" id);
  Dpc_util.Vec.get t.bufs id

let buf_count t = Dpc_util.Vec.length t.bufs

let buf_length b = b.len

exception Out_of_bounds of string

let bounds_check b i =
  if i < 0 || i >= b.len then
    raise
      (Out_of_bounds
         (Printf.sprintf "buffer %S (%d elements): index %d" b.name b.len i))

(* An index inside the logical length but past the physical array is an
   element of a buffer not yet written: it reads as zero. *)
let read_int b i =
  bounds_check b i;
  match b.data with
  | I a -> if i < Array.length a then a.(i) else 0
  | F a -> if i < Array.length a then Float.to_int a.(i) else 0

let read_float b i =
  bounds_check b i;
  match b.data with
  | F a -> if i < Array.length a then a.(i) else 0.0
  | I a -> if i < Array.length a then Float.of_int a.(i) else 0.0

(* The storage of [b], zero-filled to its logical length on first use. *)
let storage b =
  (if length_of_data b.data < b.len then
     b.data <-
       (match b.data with
       | I _ -> I (Array.make b.len 0)
       | F _ -> F (Array.make b.len 0.0)));
  b.data

let write_int b i v =
  bounds_check b i;
  match storage b with I a -> a.(i) <- v | F a -> a.(i) <- Float.of_int v

let write_float b i v =
  bounds_check b i;
  match storage b with F a -> a.(i) <- v | I a -> a.(i) <- Float.to_int v

(** Byte address of element [i] of buffer [b]; used for coalescing. *)
let addr b i = b.base + (i * elem_bytes)

(* An untouched buffer reads back as fresh zeros and stays untouched. *)
let int_contents b =
  match b.data with
  | I a when Array.length a < b.len -> Array.make b.len 0
  | I a -> Array.copy a
  | F _ -> invalid_arg "Memory.int_contents: float buffer"

let float_contents b =
  match b.data with
  | F a when Array.length a < b.len -> Array.make b.len 0.0
  | F a -> Array.copy a
  | I _ -> invalid_arg "Memory.float_contents: int buffer"
