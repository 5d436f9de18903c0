(** Tree Heights (TH): recursive computation of every subtree's height
    (leaves are 0; internal nodes 1 + max over children). *)

module Tree = Dpc_graph.Tree

let name = "TH"
let dataset_name = "tree dataset1"

let spec : Tree_common.spec =
  {
    Tree_common.app_name = name;
    kernel = "th";
    base = 0;
    acc_init = 0;
    acc_update = "acc = max(acc, out[child_list[k]] + 1);";
    cpu_ref = Tree.heights;
    host_combine =
      (fun got tree v ->
        let best = ref 0 in
        for e = tree.Tree.child_ptr.(v) to tree.Tree.child_ptr.(v + 1) - 1 do
          best := Int.max !best (got.(tree.Tree.child_list.(e)) + 1)
        done;
        !best);
  }

let family = Tree_common.family spec ~child_block:128

let extras_spec = Tree_common.extras_spec

(** The app's entry point: [sp_scale] is the tree shrink divisor (larger =
    smaller tree, default 4); extras [max_nodes]/[dataset] as in
    {!Tree_common.run_spec}. *)
let run_spec hs = Tree_common.run_spec spec hs
