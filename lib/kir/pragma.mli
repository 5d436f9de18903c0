(** The [#pragma dp] directive (Table I of the paper).

    Grammar: [#pragma dp clause+] with clauses

    - [consldt(warp|block|grid)] — consolidation granularity (required)
    - [buffer(default|halloc|custom [, perBufferSize: <int|var>] [, totalSize: <int>])]
    - [work(v1, v2, ...)] — variables (indexes or pointers) to buffer (required)
    - [threads(<int>)] — threads/block of the consolidated kernel
    - [blocks(<int>)] — blocks of the consolidated kernel

    This module only defines the directive's abstract syntax; parsing from
    source text lives in [Dpc_minicu.Pragma_parser] and the transformations
    that consume it live in the core [Dpc] library. *)

type granularity = Warp | Block | Grid

type buffer_alloc = Default | Halloc | Custom

type size = Size_const of int | Size_var of string
    (** [perBufferSize] may name a runtime variable that bounds the number
        of work items of the current thread (e.g. a node's child count). *)

type t = {
  granularity : granularity;
  buffer : buffer_alloc;
  per_buffer_size : size option;
  total_size : int option;  (** bytes of the pre-allocated pool *)
  work : string list;
  threads : int option;
  blocks : int option;
  line : int;  (** source line of the directive; 0 when built in memory *)
}

(** [const] in the paper's perBufferSize prediction
    [totalThread * totalBuffVar * const]: estimated work items per thread. *)
val default_items_per_thread : int

(** @raise Invalid_argument on an empty work varlist. *)
val make :
  ?buffer:buffer_alloc ->
  ?per_buffer_size:size ->
  ?total_size:int ->
  ?threads:int ->
  ?blocks:int ->
  ?line:int ->
  granularity:granularity ->
  work:string list ->
  unit ->
  t

val granularity_to_string : granularity -> string

(** Render back to directive syntax (used by the printer round-trip). *)
val to_string : t -> string
