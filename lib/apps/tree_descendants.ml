(** Tree Descendants (TD): recursive computation of every node's proper
    descendant count (leaves are 0; internal nodes sum children + 1 each). *)

module Tree = Dpc_graph.Tree

let name = "TD"
let dataset_name = "tree dataset1"

let spec : Tree_common.spec =
  {
    Tree_common.app_name = name;
    kernel = "td";
    base = 0;
    acc_init = 0;
    acc_update = "acc = acc + out[child_list[k]] + 1;";
    cpu_ref = Tree.descendants;
    host_combine =
      (fun got tree v ->
        let acc = ref 0 in
        for e = tree.Tree.child_ptr.(v) to tree.Tree.child_ptr.(v + 1) - 1 do
          acc := !acc + got.(tree.Tree.child_list.(e)) + 1
        done;
        !acc);
  }

let programs ?cfg () = Tree_common.programs spec ?cfg ()

let tv_units () = Tree_common.tv_units spec ()

let extras_spec = Tree_common.extras_spec

(** The app's entry point: [sp_scale] is the tree shrink divisor (larger =
    smaller tree, default 4); extras [max_nodes]/[dataset] as in
    {!Tree_common.run_spec}. *)
let run_spec hs = Tree_common.run_spec spec hs
