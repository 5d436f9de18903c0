(** Tree datasets for the recursive benchmarks (TH, TD, and the tree shape
    of BFS-Rec in [3]).

    The paper's datasets (from [3]):
    - dataset1: depth-5 tree, 128-256 children per fertile node, only half
      of the non-leaf candidates have children;
    - dataset2: depth-5 tree, 32-128 children, every internal node at
      depth < 5 has children.

    At those branching factors a full depth-5 tree has billions of nodes on
    the heavy levels; the authors necessarily used sampled/sparse variants.
    We expose the shape parameters directly and provide scaled instances
    whose branching is divided by [shrink] while keeping depth, fertility
    probability and the child-count *ratio* identical — the properties the
    benchmarks are sensitive to (fan-out skew and recursion depth). *)

module Rng = Dpc_util.Rng

type t = {
  n : int;
  child_ptr : int array;  (** length n+1 *)
  child_list : int array;
  depth_of : int array;  (** node depth, root = 0 *)
  depth : int;  (** max depth *)
}

let nchildren t v = t.child_ptr.(v + 1) - t.child_ptr.(v)

(** Generate a tree breadth-first.  A node at depth < [depth] becomes
    fertile with probability [p_child] (the root always is) and then gets a
    uniform child count in [lo, hi]. *)
let generate ~depth ~lo ~hi ~p_child ~seed ?(max_nodes = 150_000) () : t =
  if lo < 1 || hi < lo then invalid_arg "Tree.generate: bad child range";
  let rng = Rng.create seed in
  let child_lists = Dpc_util.Vec.create ~dummy:[||] in
  let depths = Dpc_util.Vec.create ~dummy:0 in
  let next_id = ref 0 in
  let fresh d =
    let id = !next_id in
    incr next_id;
    Dpc_util.Vec.push child_lists [||];
    Dpc_util.Vec.push depths d;
    id
  in
  let root = fresh 0 in
  let frontier = Queue.create () in
  Queue.push root frontier;
  let truncated = ref false in
  while not (Queue.is_empty frontier) do
    let v = Queue.pop frontier in
    let d = Dpc_util.Vec.get depths v in
    if d < depth then begin
      let fertile = v = root || Rng.float rng < p_child in
      if fertile && not !truncated then begin
        let count = Rng.int_in rng lo hi in
        if !next_id + count > max_nodes then truncated := true
        else begin
          let children = Array.init count (fun _ -> fresh (d + 1)) in
          Dpc_util.Vec.set child_lists v children;
          Array.iter (fun c -> Queue.push c frontier) children
        end
      end
    end
  done;
  let n = !next_id in
  let child_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    child_ptr.(v + 1) <-
      child_ptr.(v) + Array.length (Dpc_util.Vec.get child_lists v)
  done;
  let child_list = Array.make (Int.max 1 child_ptr.(n)) 0 in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i c -> child_list.(child_ptr.(v) + i) <- c)
      (Dpc_util.Vec.get child_lists v)
  done;
  let depth_of = Array.init n (Dpc_util.Vec.get depths) in
  let max_depth = Array.fold_left Int.max 0 depth_of in
  { n; child_ptr; child_list; depth_of; depth = max_depth }

(** dataset1 shape (128-256 children, half fertile, depth 5), with
    branching divided by [shrink] (e.g. 16: 8-16 children). *)
let dataset1 ~shrink ?max_nodes ~seed () =
  generate ~depth:5 ~lo:(Int.max 1 (128 / shrink)) ~hi:(Int.max 2 (256 / shrink))
    ~p_child:0.5 ~seed ?max_nodes ()

(** dataset2 shape (32-128 children, all fertile, depth 5), with branching
    divided by [shrink] (e.g. 16: 2-8 children). *)
let dataset2 ~shrink ?max_nodes ~seed () =
  generate ~depth:5 ~lo:(Int.max 1 (32 / shrink)) ~hi:(Int.max 2 (128 / shrink))
    ~p_child:1.0 ~seed ?max_nodes ()

(* --- CPU references ----------------------------------------------------- *)

(** Height of every subtree: leaves are 0. *)
let heights t =
  let h = Array.make t.n 0 in
  (* Children always have larger ids (BFS generation), so a reverse scan
     is a valid bottom-up order. *)
  for v = t.n - 1 downto 0 do
    let best = ref (-1) in
    for e = t.child_ptr.(v) to t.child_ptr.(v + 1) - 1 do
      best := Int.max !best h.(t.child_list.(e))
    done;
    h.(v) <- !best + 1
  done;
  h

(** Number of proper descendants of every node. *)
let descendants t =
  let d = Array.make t.n 0 in
  for v = t.n - 1 downto 0 do
    let acc = ref 0 in
    for e = t.child_ptr.(v) to t.child_ptr.(v + 1) - 1 do
      acc := !acc + 1 + d.(t.child_list.(e))
    done;
    d.(v) <- !acc
  done;
  d
