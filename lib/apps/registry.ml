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
  programs :
    ?cfg:Dpc_gpu.Config.t ->
    unit ->
    (string * Dpc_kir.Kernel.Program.t) list;
      (** every lintable program of the app, labeled by variant (see
          {!Harness.dp_programs}); the surface [dpcc --check] sweeps *)
  tv_units :
    ?cfg:Dpc_gpu.Config.t ->
    unit ->
    (string * string * Dpc_kir.Kernel.Program.t * Dpc.Transform.result) list;
      (** per consolidation granularity: variant label, parent kernel,
          the original annotated program, and the transform's result —
          the translation-validation surface ({!Harness.dp_tv_units}) *)
  extras_spec : (string * Harness.extra_kind) list;
      (** the app-specific extras keys the app accepts, with their value
          shapes; the engine lints scenario extras against this eagerly *)
}

let sssp =
  { name = Sssp.name; dataset = Sssp.dataset_name;
    run_spec = Sssp.run_spec;
    programs = Sssp.programs;
    tv_units = Sssp.tv_units;
    extras_spec = Sssp.extras_spec }

let spmv =
  { name = Spmv.name; dataset = Spmv.dataset_name;
    run_spec = Spmv.run_spec;
    programs = Spmv.programs;
    tv_units = Spmv.tv_units;
    extras_spec = Spmv.extras_spec }

let pagerank =
  { name = Pagerank.name; dataset = Pagerank.dataset_name;
    run_spec = Pagerank.run_spec;
    programs = Pagerank.programs;
    tv_units = Pagerank.tv_units;
    extras_spec = Pagerank.extras_spec }

let graph_coloring =
  { name = Graph_coloring.name; dataset = Graph_coloring.dataset_name;
    run_spec = Graph_coloring.run_spec;
    programs = Graph_coloring.programs;
    tv_units = Graph_coloring.tv_units;
    extras_spec = Graph_coloring.extras_spec }

let bfs_rec =
  { name = Bfs_rec.name; dataset = Bfs_rec.dataset_name;
    run_spec = Bfs_rec.run_spec;
    programs = Bfs_rec.programs;
    tv_units = Bfs_rec.tv_units;
    extras_spec = Bfs_rec.extras_spec }

let tree_height =
  { name = Tree_height.name; dataset = Tree_height.dataset_name;
    run_spec = Tree_height.run_spec;
    programs = Tree_height.programs;
    tv_units = Tree_height.tv_units;
    extras_spec = Tree_height.extras_spec }

let tree_descendants =
  { name = Tree_descendants.name; dataset = Tree_descendants.dataset_name;
    run_spec = Tree_descendants.run_spec;
    programs = Tree_descendants.programs;
    tv_units = Tree_descendants.tv_units;
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
