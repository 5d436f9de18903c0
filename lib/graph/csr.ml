(** Compressed Sparse Row graphs/matrices — the representation all the
    paper's graph benchmarks use ([5]). *)

type t = {
  n : int;  (** nodes (or matrix rows) *)
  row_ptr : int array;  (** length n+1 *)
  col : int array;  (** column/neighbor indices, length row_ptr.(n) *)
  weights : int array;  (** per-edge integer weights (SSSP); length nnz *)
}

let nnz g = g.row_ptr.(g.n)

let degree g v = g.row_ptr.(v + 1) - g.row_ptr.(v)

let max_degree g =
  let m = ref 0 in
  for v = 0 to g.n - 1 do
    m := Int.max !m (degree g v)
  done;
  !m

let avg_degree g = Float.of_int (nnz g) /. Float.of_int (Int.max 1 g.n)

(** Build from adjacency lists; edge weights supplied per edge or default 1. *)
let of_adjacency ?(weights : int list array option) (adj : int list array) : t
    =
  let n = Array.length adj in
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + List.length adj.(v)
  done;
  let m = row_ptr.(n) in
  let col = Array.make (Int.max 1 m) 0 in
  let w = Array.make (Int.max 1 m) 1 in
  for v = 0 to n - 1 do
    List.iteri (fun i u -> col.(row_ptr.(v) + i) <- u) adj.(v);
    match weights with
    | Some ws -> List.iteri (fun i x -> w.(row_ptr.(v) + i) <- x) ws.(v)
    | None -> ()
  done;
  { n; row_ptr; col; weights = w }

exception Invalid of string

(** Check structural invariants; raises {!Invalid}. *)
let validate g =
  if Array.length g.row_ptr <> g.n + 1 then
    raise (Invalid "row_ptr length must be n+1");
  if g.row_ptr.(0) <> 0 then raise (Invalid "row_ptr must start at 0");
  for v = 0 to g.n - 1 do
    if g.row_ptr.(v + 1) < g.row_ptr.(v) then
      raise (Invalid "row_ptr must be non-decreasing")
  done;
  let m = nnz g in
  if Array.length g.col < m then raise (Invalid "col shorter than nnz");
  if Array.length g.weights < m then raise (Invalid "weights shorter than nnz");
  for e = 0 to m - 1 do
    if g.col.(e) < 0 || g.col.(e) >= g.n then
      raise (Invalid (Printf.sprintf "edge %d targets invalid node %d" e g.col.(e)))
  done

(** Transpose (reverse every edge); weights follow their edges. *)
let transpose g =
  let in_deg = Array.make g.n 0 in
  for e = 0 to nnz g - 1 do
    in_deg.(g.col.(e)) <- in_deg.(g.col.(e)) + 1
  done;
  let row_ptr = Array.make (g.n + 1) 0 in
  for v = 0 to g.n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + in_deg.(v)
  done;
  let m = nnz g in
  let col = Array.make (Int.max 1 m) 0 in
  let weights = Array.make (Int.max 1 m) 1 in
  let cursor = Array.copy row_ptr in
  for v = 0 to g.n - 1 do
    for e = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      let u = g.col.(e) in
      col.(cursor.(u)) <- v;
      weights.(cursor.(u)) <- g.weights.(e);
      cursor.(u) <- cursor.(u) + 1
    done
  done;
  { n = g.n; row_ptr; col; weights }

(** Undirected closure: every edge present in both directions (duplicates
    removed).  Graph coloring needs symmetric conflict visibility. *)
let symmetrize g =
  let adj = Array.make g.n [] in
  let add v u = if u <> v then adj.(v) <- u :: adj.(v) in
  for v = 0 to g.n - 1 do
    for e = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      add v g.col.(e);
      add g.col.(e) v
    done
  done;
  let dedup l = List.sort_uniq compare l in
  let g' = of_adjacency (Array.map dedup adj) in
  validate g';
  g'
