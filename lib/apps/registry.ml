(** The seven benchmarks of the paper's evaluation (Section V), one
    {!entry} each.

    An app has one entry point, [run_spec], driven by the engine layer
    ([Dpc_engine.Scenario.to_spec] builds its {!Harness.spec}).  [scale]
    semantics are app-specific (documented per app): node count for the
    citeseer-based apps, log2 node count for the kron-based apps, and the
    shrink divisor for the tree datasets.  Every run verifies its results
    against the CPU reference before reporting. *)

type entry = {
  name : string;
  dataset : string;
  run_spec : Harness.spec -> Dpc_sim.Metrics.report;
      (** the app's only entry point; app-specific knobs arrive as extras,
          already checked against [extras_spec] *)
  family : Harness.family;
      (** the app's programs; [Harness.build] builds any variant from it
          (the surface [dpcc --check] sweeps) *)
  extras_spec : (string * Harness.extra_kind) list;
      (** the app-specific extras keys the app accepts, with their value
          shapes; the engine lints scenario extras against this eagerly *)
}

let sssp =
  { name = Sssp.name; dataset = Sssp.dataset_name;
    run_spec = Sssp.run_spec;
    family = Sssp.family;
    extras_spec = Sssp.extras_spec }

let spmv =
  { name = Spmv.name; dataset = Spmv.dataset_name;
    run_spec = Spmv.run_spec;
    family = Spmv.family;
    extras_spec = Spmv.extras_spec }

let pagerank =
  { name = Pagerank.name; dataset = Pagerank.dataset_name;
    run_spec = Pagerank.run_spec;
    family = Pagerank.family;
    extras_spec = Pagerank.extras_spec }

let graph_coloring =
  { name = Graph_coloring.name; dataset = Graph_coloring.dataset_name;
    run_spec = Graph_coloring.run_spec;
    family = Graph_coloring.family;
    extras_spec = Graph_coloring.extras_spec }

let bfs_rec =
  { name = Bfs_rec.name; dataset = Bfs_rec.dataset_name;
    run_spec = Bfs_rec.run_spec;
    family = Bfs_rec.family;
    extras_spec = Bfs_rec.extras_spec }

let tree_height =
  { name = Tree_height.name; dataset = Tree_height.dataset_name;
    run_spec = Tree_height.run_spec;
    family = Tree_height.family;
    extras_spec = Tree_height.extras_spec }

let tree_descendants =
  { name = Tree_descendants.name; dataset = Tree_descendants.dataset_name;
    run_spec = Tree_descendants.run_spec;
    family = Tree_descendants.family;
    extras_spec = Tree_descendants.extras_spec }

(** In the paper's presentation order. *)
let all =
  [ sssp; spmv; pagerank; graph_coloring; bfs_rec; tree_height;
    tree_descendants ]

let find name =
  match List.find_opt (fun e -> String.lowercase_ascii e.name = String.lowercase_ascii name) all with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown app %S (have: %s)" name
         (String.concat ", " (List.map (fun e -> e.name) all)))
