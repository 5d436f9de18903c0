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
let default_items_per_thread = 4

let make ?(buffer = Custom) ?per_buffer_size ?total_size ?threads ?blocks
    ?(line = 0) ~granularity ~work () =
  if work = [] then invalid_arg "Pragma.make: empty work varlist";
  { granularity; buffer; per_buffer_size; total_size; work; threads; blocks;
    line }

let granularity_to_string = function
  | Warp -> "warp"
  | Block -> "block"
  | Grid -> "grid"

let buffer_alloc_to_string = function
  | Default -> "default"
  | Halloc -> "halloc"
  | Custom -> "custom"

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "#pragma dp consldt(%s)" (granularity_to_string t.granularity));
  let size_opts =
    (match t.per_buffer_size with
    | Some (Size_const n) -> [ Printf.sprintf "perBufferSize: %d" n ]
    | Some (Size_var v) -> [ Printf.sprintf "perBufferSize: %s" v ]
    | None -> [])
    @
    match t.total_size with
    | Some n -> [ Printf.sprintf "totalSize: %d" n ]
    | None -> []
  in
  Buffer.add_string buf
    (Printf.sprintf " buffer(%s%s)"
       (buffer_alloc_to_string t.buffer)
       (match size_opts with
       | [] -> ""
       | l -> ", " ^ String.concat ", " l));
  Buffer.add_string buf
    (Printf.sprintf " work(%s)" (String.concat ", " t.work));
  Option.iter (fun n -> Buffer.add_string buf (Printf.sprintf " threads(%d)" n)) t.threads;
  Option.iter (fun n -> Buffer.add_string buf (Printf.sprintf " blocks(%d)" n)) t.blocks;
  Buffer.contents buf
