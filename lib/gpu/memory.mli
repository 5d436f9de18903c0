(** Simulated global (device) memory.

    Global memory is a set of named buffers of 32-bit elements (ints or
    floats).  Each buffer has a stable, 128-byte-aligned byte base address,
    so the interpreter can compute the DRAM segments a warp access touches
    and count memory transactions the way the CUDA profiler does.

    A zero-filled buffer reads as zero but gets its storage only on its
    first write: until then [data] is empty and [len] alone carries its
    length.  Code that indexes [data] directly must check the physical
    array's length and fall back to the accessors, which apply [len]. *)

type data = I of int array | F of float array

type buf = private {
  id : int;
  name : string;
  base : int;  (** byte address of element 0 *)
  len : int;  (** logical element count *)
  mutable data : data;
      (** storage: [len] elements, or empty until the first write *)
}

type t

val elem_bytes : int

val create : unit -> t

(** Allocate an integer buffer of at least one element; it reads as zero
    and gets its storage on its first write. *)
val alloc_int : t -> name:string -> int -> buf

(** Allocate a float buffer of at least one element; it reads as zero and
    gets its storage on its first write. *)
val alloc_float : t -> name:string -> int -> buf

(** Copy a host array into a fresh device buffer. *)
val of_int_array : t -> name:string -> int array -> buf

val of_float_array : t -> name:string -> float array -> buf

(** @raise Invalid_argument for an unknown id. *)
val get_buf : t -> int -> buf

(** Number of buffers allocated so far. *)
val buf_count : t -> int

(** The logical element count, [len]. *)
val buf_length : buf -> int

exception Out_of_bounds of string

(** Element accessors; cross-type access coerces (as reinterpreting a
    device pointer would, but with explicit conversion semantics).  A write
    gives an untouched buffer its zero-filled storage first.
    @raise Out_of_bounds outside [\[0, length)]. *)
val read_int : buf -> int -> int

val read_float : buf -> int -> float
val write_int : buf -> int -> int -> unit
val write_float : buf -> int -> float -> unit

(** Byte address of element [i]; used for coalescing. *)
val addr : buf -> int -> int

(** Copies of the contents (host read-back); an untouched buffer yields
    fresh zeros and stays untouched.
    @raise Invalid_argument on element-type mismatch. *)
val int_contents : buf -> int array

val float_contents : buf -> float array
