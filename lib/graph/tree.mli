(** Tree datasets for the recursive benchmarks (TH, TD), after the
    datasets of [3]; see DESIGN.md for the scaling discussion. *)

type t = {
  n : int;
  child_ptr : int array;  (** length n+1 *)
  child_list : int array;
  depth_of : int array;  (** node depth; root = 0 *)
  depth : int;  (** maximum depth *)
}

val nchildren : t -> int -> int

(** Generate breadth-first: a node at depth < [depth] becomes fertile with
    probability [p_child] (the root always is) and gets a uniform child
    count in [\[lo, hi\]].  Generation stops adding children once
    [max_nodes] would be exceeded. *)
val generate :
  depth:int ->
  lo:int ->
  hi:int ->
  p_child:float ->
  seed:int ->
  ?max_nodes:int ->
  unit ->
  t

(** dataset1 shape (128-256 children, half of candidates fertile, depth 5)
    with branching divided by [shrink] (e.g. 16: 8-16 children). *)
val dataset1 : shrink:int -> ?max_nodes:int -> seed:int -> unit -> t

(** dataset2 shape (32-128 children, all fertile, depth 5) with branching
    divided by [shrink] (e.g. 16: 2-8 children). *)
val dataset2 : shrink:int -> ?max_nodes:int -> seed:int -> unit -> t

(** CPU references: height of every subtree (leaves 0) and proper
    descendant counts. *)
val heights : t -> int array

val descendants : t -> int array
