(** The workload-consolidation code transformations (Section IV).

    Given a parent kernel containing a [#pragma dp]-annotated device-side
    launch of a child kernel, this module generates:

    - the {e consolidated child kernel} ([<child>_cons_<gran>]): fetches
      buffered work items and processes them with the original child code
      (Section IV.C, "Child kernel transformation"; the three cases —
      solo-thread, solo-block, multi-block — follow
      {!Config_select.child_shape});
    - the {e transformed parent}: consolidation-buffer allocation before
      the prework, buffer insertions replacing the launch, the granularity's
      barrier (implicit warp lockstep / [__syncthreads] / the custom grid
      barrier), and a designated-thread launch of the consolidated child
      (Section IV.C, "Parent kernel transformation");
    - for grid-level consolidation with postwork, the {e consolidated
      postwork kernel} ([<parent>_post_grid]) launched by the last block
      after [cudaDeviceSynchronize] (the deadlock-avoidance design of
      Section IV.C).

    Recursive kernels (parent = child) get both stages applied to the one
    kernel (Section IV.C, Fig. 3): the consolidated kernel fetches items
    from its input buffer, re-buffers the work its items generate into a
    fresh buffer, and launches itself on that buffer for the next level.

    {2 Source contract}

    The transforms accept the paper's basic-DP template (Fig. 1):

    - exactly one annotated launch per parent kernel;
    - every [work] variable appears verbatim as a launch argument, and the
      remaining (uniform) arguments do not read work variables;
    - the child kernel does not [return];
    - if the parent has postwork (statements after a top-level
      [cudaDeviceSynchronize]), the postwork may only read work variables,
      uniform kernel parameters and values it defines itself, and may not
      use thread/block indices — this is what lets it be re-executed per
      buffered item (the paper handles the same dependences by "duplicating
      in the postwork the relevant portions of prework").

    Violations raise {!Unsupported} with an explanation. *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module V = Dpc_kir.Value
module Pragma = Dpc_kir.Pragma
module R = Dpc_kir.Rewrite
module Cfg = Dpc_gpu.Config
module Cs = Config_select

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Reserved names introduced by the transforms. *)
let buf_param = "__cons_buf"
let cnt_param = "__cons_cnt"
let buf_next = "__cons_buf_next"
let cnt_next = "__cons_cnt_next"
let pos_name = "__cons_pos"
let it_name = "__cons_it"
let pi_name = "__cons_pi"

let cons_name base gran =
  Printf.sprintf "%s_cons_%s" base (Pragma.granularity_to_string gran)

let post_kernel_name base gran =
  Printf.sprintf "%s_post_%s" base (Pragma.granularity_to_string gran)

let vint n = A.Const (V.Vint n)
let evar name = A.Var (A.var name)
let ( +: ) a b = A.Binop (A.Add, a, b)
let ( *: ) a b = A.Binop (A.Mul, a, b)
let ( <: ) a b = A.Binop (A.Lt, a, b)
let ( >: ) a b = A.Binop (A.Gt, a, b)
let ( ==: ) a b = A.Binop (A.Eq, a, b)
let ( &&: ) a b = A.Binop (A.And, a, b)
let read0 name = A.Load (evar name, vint 0)
let gtid = (A.Special A.Block_idx *: A.Special A.Block_dim) +: A.Special A.Thread_idx

(* ------------------------------------------------------------------ *)
(* Launch-site analysis                                                 *)
(* ------------------------------------------------------------------ *)

type site = {
  launch : A.launch;
  pragma : Pragma.t;
  nvars : int;
  shape : Cs.child_shape;
  (* For each child parameter position: [Some k] when bound from work
     variable k of the buffer, [None] when uniform. *)
  param_roles : int option list;
  uniform_positions : int list;
}

let find_annotated_launch (k : K.t) : A.launch * Pragma.t =
  let annotated =
    List.filter_map
      (fun (l : A.launch) -> Option.map (fun p -> (l, p)) l.A.pragma)
      (A.collect_launches k.K.body)
  in
  match annotated with
  | [ lp ] -> lp
  | [] -> unsupported "kernel %s has no #pragma dp annotated launch" k.K.kname
  | _ ->
    unsupported "kernel %s has multiple annotated launches (one supported)"
      k.K.kname

let expr_reads_any (names : string list) (e : A.expr) =
  let found = ref false in
  A.iter_expr
    (fun x ->
      match x with
      | A.Var v -> if List.mem v.A.name names then found := true
      | _ -> ())
    e;
  !found

let index_of x lst =
  let rec go i = function
    | [] -> None
    | y :: rest -> if y = x then Some i else go (i + 1) rest
  in
  go 0 lst

let analyze_site (parent : K.t) (launch : A.launch) (pragma : Pragma.t)
    (child : K.t) : site =
  let work = pragma.Pragma.work in
  if List.length launch.A.args <> List.length child.K.params then
    unsupported "launch of %s: argument count mismatch" launch.A.callee;
  let param_roles =
    List.map
      (fun (arg : A.expr) ->
        match arg with
        | A.Var v when List.mem v.A.name work -> index_of v.A.name work
        | _ ->
          if expr_reads_any work arg then
            unsupported
              "kernel %s: a uniform launch argument reads a work variable; \
               list it in the work clause or hoist it"
              parent.K.kname;
          None)
      launch.A.args
  in
  List.iteri
    (fun k w ->
      if not (List.exists (fun r -> r = Some k) param_roles) then
        unsupported "kernel %s: work variable %s is not a launch argument"
          parent.K.kname w)
    work;
  let uniform_positions =
    List.mapi (fun i r -> (i, r)) param_roles
    |> List.filter_map (fun (i, r) -> if r = None then Some i else None)
  in
  {
    launch;
    pragma;
    nvars = List.length work;
    shape = Cs.classify ~grid:launch.A.grid ~block:launch.A.block;
    param_roles;
    uniform_positions;
  }

(* ------------------------------------------------------------------ *)
(* Validation helpers                                                   *)
(* ------------------------------------------------------------------ *)

let block_contains pred (body : A.stmt list) =
  let found = ref false in
  A.iter_block body
    ~on_stmt:(fun s -> if pred s then found := true)
    ~on_expr:(fun _ -> ());
  !found

let contains_return = block_contains (function A.Return -> true | _ -> false)

let thread_dependent_specials (body : A.stmt list) =
  let found = ref [] in
  A.iter_block
    ~on_stmt:(fun _ -> ())
    ~on_expr:(fun e ->
      match e with
      | A.Special
          ((A.Thread_idx | A.Block_idx | A.Lane_id | A.Warp_id | A.Block_dim
           | A.Grid_dim) as s) ->
        let name = Dpc_kir.Pp.special_to_string s in
        if not (List.mem name !found) then found := name :: !found
      | _ -> ())
    body;
  !found

let check_postwork_contract ~context ~allowed (postwork : A.stmt list) =
  (match R.free_reads ~bound:allowed postwork with
  | [] -> ()
  | frees ->
    unsupported
      "%s: postwork reads %s, which are neither work variables, uniform \
       parameters nor defined in the postwork itself"
      context
      (String.concat ", " frees));
  match thread_dependent_specials postwork with
  | [] -> ()
  | specials ->
    unsupported
      "%s: postwork uses %s; per-item postwork cannot depend on thread or \
       block indices"
      context
      (String.concat ", " specials)

(* ------------------------------------------------------------------ *)
(* Generated code fragments                                             *)
(* ------------------------------------------------------------------ *)

let alloc_scope = function
  | Pragma.Warp -> A.Per_warp
  | Pragma.Block -> A.Per_block
  | Pragma.Grid -> A.Per_grid

(* Buffer capacity in items (Section IV.E): the pragma's perBufferSize if
   given; otherwise the paper's prediction totalThread * const, where
   totalThread is the size of the consolidation domain and const estimates
   work items per thread. *)
let items_capacity (pragma : Pragma.t) =
  match pragma.Pragma.per_buffer_size with
  | Some (Pragma.Size_const n) -> vint n
  | Some (Pragma.Size_var v) -> evar v
  | None ->
    let domain =
      match pragma.Pragma.granularity with
      | Pragma.Warp -> A.Special A.Warp_size
      | Pragma.Block -> A.Special A.Block_dim
      | Pragma.Grid -> A.Special A.Grid_dim *: A.Special A.Block_dim
    in
    domain *: vint Pragma.default_items_per_thread

let alloc_stmts (pragma : Pragma.t) ~nvars ~buf ~cnt : A.stmt list =
  let scope = alloc_scope pragma.Pragma.granularity in
  [
    A.Malloc
      {
        dst = A.var buf;
        count = items_capacity pragma *: vint nvars;
        scope;
        site = -1;
      };
    A.Malloc { dst = A.var cnt; count = vint 1; scope; site = -1 };
  ]

(* Buffer insertions replacing the launch: one atomic slot reservation plus
   one store per work variable (Fig. 2(b)).  If the reserved slot is beyond
   the buffer's capacity, the thread falls back to launching the original
   (unconsolidated) child directly — consolidation degrades gracefully
   instead of corrupting memory when the perBufferSize prediction is low.

   [overflow_post] is the parent's postwork when that postwork is
   buffer-driven (a grid-level postwork kernel, or the inline
   buffer-striding loop of recursive warp/block consolidation): those
   loops only visit buffered items, so an overflowed item's postwork
   would be silently skipped.  The fallback therefore waits for its
   direct launch and runs the item's postwork itself, with the work
   variables still bound at the launch site — exactly the basic-DP
   per-thread behavior the fallback degrades to.  When the postwork
   stays in place per thread (non-recursive warp/block), it already
   covers overflowed items and [overflow_post] must be [None]. *)
let insertion_stmts ?overflow_post (site : site) ~buf ~cnt : A.stmt list =
  let direct_launch =
    A.Launch
      {
        callee = site.launch.A.callee;
        grid = A.copy_expr site.launch.A.grid;
        block = A.copy_expr site.launch.A.block;
        args = List.map A.copy_expr site.launch.A.args;
        pragma = None;
      }
  in
  [
    A.Atomic
      {
        op = A.Aadd;
        buf = evar cnt;
        idx = vint 0;
        operand = vint 1;
        compare = None;
        old = Some (A.var pos_name);
      };
    A.If
      ( evar pos_name <: items_capacity site.pragma,
        List.mapi
          (fun k w ->
            A.Store
              (evar buf, (evar pos_name *: vint site.nvars) +: vint k, evar w))
          site.pragma.Pragma.work,
        direct_launch
        ::
        (match overflow_post with
        | None -> []
        | Some pw -> A.Device_sync :: pw) );
  ]

let barrier_stmts = function
  | Pragma.Warp -> []  (* implicit: lockstep execution within the warp *)
  | Pragma.Block -> [ A.Syncthreads ]
  | Pragma.Grid -> [ A.Grid_barrier ]

let designated_cond = function
  | Pragma.Warp -> A.Special A.Lane_id ==: vint 0
  | Pragma.Block | Pragma.Grid -> A.Special A.Thread_idx ==: vint 0

(* Arguments of the consolidated child launch: the uniform arguments of the
   original launch (copied), then the buffer and the counter. *)
let cons_launch_args (site : site) ~buf ~cnt : A.expr list =
  (List.filteri
     (fun i _ -> List.mem i site.uniform_positions)
     site.launch.A.args
  |> List.map A.copy_expr)
  @ [ evar buf; evar cnt ]

(* The designated-thread launch of the consolidated child, guarded by a
   non-empty buffer; at grid level with postwork it also synchronizes and
   launches the consolidated postwork kernel. *)
let designated_launch_stmts ~cfg ~policy (site : site) ~callee ~buf ~cnt
    ~(post : (string * A.expr list) option) : A.stmt list =
  let grid, block =
    Cs.select cfg ~policy ~pragma:site.pragma ~shape:site.shape
      ~cnt:(read0 cnt)
  in
  let launch_child =
    A.Launch
      { callee; grid; block; args = cons_launch_args site ~buf ~cnt;
        pragma = None }
  in
  (* Overflowed insertions fell back to direct launches; clamp the counter
     to the buffer capacity before handing it to the consolidated child. *)
  let clamp =
    A.Store
      ( evar cnt,
        vint 0,
        A.Binop (A.Min, read0 cnt, items_capacity site.pragma) )
  in
  let body =
    match post with
    | None -> [ clamp; launch_child ]
    | Some (post_name, post_args) ->
      let pgrid, pblock =
        Cs.select cfg ~policy ~pragma:site.pragma ~shape:Cs.Solo_thread
          ~cnt:(read0 cnt)
      in
      [
        clamp;
        launch_child;
        A.Device_sync;
        A.Launch
          {
            callee = post_name;
            grid = pgrid;
            block = pblock;
            args = post_args @ [ evar buf; evar cnt ];
            pragma = None;
          };
      ]
  in
  [
    A.If
      ( designated_cond site.pragma.Pragma.granularity &&: (read0 cnt >: vint 0),
        body,
        [] );
  ]

(* ------------------------------------------------------------------ *)
(* Child-kernel transformation (Section IV.C)                           *)
(* ------------------------------------------------------------------ *)

let shape_specials (shape : Cs.child_shape) (s : A.special) : A.expr option =
  match shape with
  | Cs.Solo_thread -> (
    match s with
    | A.Thread_idx | A.Block_idx | A.Lane_id | A.Warp_id -> Some (vint 0)
    | A.Block_dim | A.Grid_dim -> Some (vint 1)
    | A.Warp_size -> None)
  | Cs.Solo_block _ -> (
    match s with
    | A.Block_idx -> Some (vint 0)
    | A.Grid_dim -> Some (vint 1)
    | A.Thread_idx | A.Block_dim | A.Lane_id | A.Warp_id | A.Warp_size -> None)
  | Cs.Multi_block -> None

(* Bindings that fetch one work item: each varying child parameter is bound
   from the buffer at item index [it]. *)
let fetch_bindings (site : site) (child : K.t) ~buf (it : A.expr) :
    A.stmt list =
  List.concat
    (List.map2
       (fun (p : A.param) role ->
         match role with
         | Some k ->
           [
             A.Let
               ( A.var p.A.pname,
                 A.Load (evar buf, (it *: vint site.nvars) +: vint k) );
           ]
         | None -> [])
       child.K.params site.param_roles)

(* Bindings that rebind the parent-side work variable names from the buffer
   (used by postwork re-execution). *)
let work_bindings (site : site) ~buf (it : A.expr) : A.stmt list =
  List.mapi
    (fun k w ->
      A.Let (A.var w, A.Load (evar buf, (it *: vint site.nvars) +: vint k)))
    site.pragma.Pragma.work

(* Wrap per-item code in the work-fetch loop appropriate to the child's
   shape, making the consolidated kernel moldable (Section IV.C). *)
let wrap_fetch (site : site) ~cnt ~(bindings : A.expr -> A.stmt list)
    (per_item : A.stmt list) : A.stmt list =
  let it = evar it_name in
  match site.shape with
  | Cs.Solo_thread ->
    [
      A.Let (A.var it_name, gtid);
      A.While
        ( it <: read0 cnt,
          bindings it @ per_item
          @ [
              A.Let
                ( A.var it_name,
                  it +: (A.Special A.Grid_dim *: A.Special A.Block_dim) );
            ] );
    ]
  | Cs.Solo_block _ ->
    (* When the child body synchronizes (cooperative shared-memory use),
       also separate successive items with a barrier. *)
    let maybe_sync =
      if A.has_syncthreads_block per_item then [ A.Syncthreads ] else []
    in
    [
      A.Let (A.var it_name, A.Special A.Block_idx);
      A.While
        ( it <: read0 cnt,
          bindings it @ per_item @ maybe_sync
          @ [ A.Let (A.var it_name, it +: A.Special A.Grid_dim) ] );
    ]
  | Cs.Multi_block ->
    [ A.For (A.var it_name, vint 0, read0 cnt, bindings it @ per_item) ]

(* The consolidated child kernel for a non-recursive site. *)
let make_consolidated_child (site : site) (child : K.t) ~name : K.t =
  if contains_return child.K.body then
    unsupported
      "kernel %s: child kernels with return are not consolidatable (the \
       fetch loop must continue)"
      child.K.kname;
  (match (site.shape, A.has_syncthreads_block child.K.body) with
  | Cs.Solo_thread, true ->
    unsupported
      "kernel %s: __syncthreads in a solo-thread child kernel" child.K.kname
  | _ -> ());
  let body' = R.subst_specials (shape_specials site.shape) child.K.body in
  let uniform_params =
    List.filteri
      (fun i _ -> List.mem i site.uniform_positions)
      child.K.params
    |> List.map (fun (p : A.param) -> A.param ~ty:p.A.ptype p.A.pname)
  in
  let params =
    uniform_params
    @ [ A.param ~ty:A.Tptr_int buf_param; A.param ~ty:A.Tptr_int cnt_param ]
  in
  let bindings it = fetch_bindings site child ~buf:buf_param it in
  K.make ~name ~line:child.K.line ~params ~shared:child.K.shared
    (wrap_fetch site ~cnt:cnt_param ~bindings body')

(* ------------------------------------------------------------------ *)
(* Parent-kernel transformation (Section IV.C)                          *)
(* ------------------------------------------------------------------ *)

(* Split a parent body at its first top-level cudaDeviceSynchronize:
   (prefix, Some postwork) or (body, None). *)
let split_postwork (body : A.stmt list) : A.stmt list * A.stmt list option =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | A.Device_sync :: rest -> (List.rev acc, Some rest)
    | s :: rest -> go (s :: acc) rest
  in
  go [] body

let launch_in_block (body : A.stmt list) =
  block_contains
    (function A.Launch { pragma = Some _; _ } -> true | _ -> false)
    body

(* Rewrite a body replacing the annotated launch with buffer insertions
   (and optionally substituting specials, for the recursive fetch body).
   [overflow_post] as in {!insertion_stmts}. *)
let replace_launch_with_insertions ?(specials = fun _ -> None) ?overflow_post
    (site : site) ~buf ~cnt (body : A.stmt list) : A.stmt list =
  let hooks =
    {
      R.no_hooks with
      R.special = specials;
      R.launch =
        (fun (l : A.launch) ->
          match l.A.pragma with
          | Some _ ->
            (* The replacement must see the same special-register
               substitution as the surrounding (inlined) child body. *)
            Some
              (R.rw_block
                 { R.no_hooks with R.special = specials }
                 (insertion_stmts ?overflow_post site ~buf ~cnt))
          | None -> None);
    }
  in
  R.rw_block hooks body

(* The consolidated postwork kernel: one thread per buffered item, work
   variables rebound from the buffer (grid-level consolidation). *)
let make_post_kernel (site : site) ~name ~(params : A.param list)
    (postwork : A.stmt list) : K.t =
  let params =
    List.map (fun (p : A.param) -> A.param ~ty:p.A.ptype p.A.pname) params
    @ [ A.param ~ty:A.Tptr_int buf_param; A.param ~ty:A.Tptr_int cnt_param ]
  in
  let it = evar it_name in
  let body =
    [
      A.Let (A.var it_name, gtid);
      A.While
        ( it <: read0 cnt_param,
          work_bindings site ~buf:buf_param it
          @ R.rw_block R.no_hooks postwork
          @ [
              A.Let
                ( A.var it_name,
                  it +: (A.Special A.Grid_dim *: A.Special A.Block_dim) );
            ] );
    ]
  in
  K.make ~name ~params body

(* Inline hoisted postwork for recursive warp-/block-level consolidation:
   after the consolidated child completes, the lanes of the consolidation
   domain stride over the freshly filled buffer. *)
let inline_postwork_stmts (site : site) ~buf ~cnt (postwork : A.stmt list) :
    A.stmt list =
  let start, stride =
    match site.pragma.Pragma.granularity with
    | Pragma.Warp -> (A.Special A.Lane_id, A.Special A.Warp_size)
    | Pragma.Block -> (A.Special A.Thread_idx, A.Special A.Block_dim)
    | Pragma.Grid ->
      invalid_arg "inline_postwork_stmts: grid level uses a postwork kernel"
  in
  let pi = evar pi_name in
  (* At block level, re-synchronize before reading the counter thread 0
     clamped in the designated branch (implicit at warp level). *)
  (match site.pragma.Pragma.granularity with
  | Pragma.Block -> [ A.Syncthreads ]
  | Pragma.Warp | Pragma.Grid -> [])
  @ [
    A.Device_sync;
    A.Let (A.var pi_name, start);
    A.While
      ( pi <: read0 cnt,
        work_bindings site ~buf pi
        @ R.rw_block R.no_hooks postwork
        @ [ A.Let (A.var pi_name, pi +: stride) ] );
  ]

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                     *)
(* ------------------------------------------------------------------ *)

type result = {
  program : K.Program.t;  (** fresh program with the transformed kernels *)
  entry : string;  (** kernel the host launches *)
  recursive : bool;
      (** when true, [entry] is the consolidated kernel itself and the host
          must append two int buffers to the uniform arguments: the seed
          work-item buffer and a one-element counter holding the item
          count *)
  cons_kernel : string;
  post_kernel : string option;
  granularity : Pragma.granularity;
  buffer_alloc : Pragma.buffer_alloc;
  nvars : int;
  policy : Cs.policy;
  threads : int;  (** block size of the consolidated kernel *)
  static_blocks : int option;  (** grid size when the policy is static *)
}

(* Post-apply validation hook (the same shape as Kernel.finalize_check):
   the checker library installs translation validation here without
   creating a dependency cycle.  Called with the *original* program and
   the freshly built result; raising aborts the transformation. *)
let apply_check_key : (parent:string -> K.Program.t -> result -> unit) Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> fun ~parent:_ _ _ -> ())

let apply_check () = Domain.DLS.get apply_check_key
let set_apply_check f = Domain.DLS.set apply_check_key f

let copy_kernel (k : K.t) : K.t =
  K.make ~name:k.K.kname ~line:k.K.line
    ~params:
      (List.map (fun (p : A.param) -> A.param ~ty:p.A.ptype p.A.pname)
         k.K.params)
    ~shared:k.K.shared
    (A.copy_block k.K.body)

let param_names (params : A.param list) =
  List.map (fun (p : A.param) -> p.A.pname) params

let uniform_params_of (site : site) (child : K.t) : A.param list =
  List.filteri (fun i _ -> List.mem i site.uniform_positions) child.K.params
  |> List.map (fun (p : A.param) -> A.param ~ty:p.A.ptype p.A.pname)

(** Host-side launch configuration for [entry] when it is the consolidated
    kernel (recursive case): [items] is the seed item count. *)
let launch_config (cfg : Cfg.t) (r : result) ~items =
  match r.policy with
  | Cs.Explicit (b, t) -> (b, t)
  | Cs.Kc _ ->
    ( (match r.static_blocks with Some b -> b | None -> 1),
      r.threads )
  | Cs.One_to_one ->
    let t = r.threads in
    (Int.max 1 ((items + t - 1) / t), t)
    |> fun (b, t) -> (Int.min b cfg.Cfg.max_grid_blocks, t)

let apply ?policy ~(cfg : Cfg.t) ~(parent : string) (prog : K.Program.t) :
    result =
  let p = K.Program.find prog parent in
  let launch, pragma = find_annotated_launch p in
  let recursive = launch.A.callee = parent in
  let child = K.Program.find prog launch.A.callee in
  let site = analyze_site p launch pragma child in
  let gran = pragma.Pragma.granularity in
  let policy =
    match policy with Some pl -> pl | None -> Cs.default_policy gran
  in
  let cons = cons_name child.K.kname gran in
  let postname = post_kernel_name p.K.kname gran in
  let out = K.Program.create () in
  (* Copy every kernel through; the parent is replaced below for the
     non-recursive case. *)
  List.iter
    (fun k ->
      if recursive || k.K.kname <> parent then
        K.Program.add out (copy_kernel k))
    (K.Program.kernels prog);
  let threads = Cs.select_threads ~pragma ~shape:site.shape in
  let static_blocks =
    match policy with
    | Cs.Explicit (b, _) -> Some b
    | Cs.Kc x ->
      Some (Int.max 1 (Cfg.device_fill_blocks cfg ~block_dim:threads / x))
    | Cs.One_to_one -> None
  in
  let finish ~entry ~post_kernel =
    K.Program.finalize out;
    let r =
      {
        program = out;
        entry;
        recursive;
        cons_kernel = cons;
        post_kernel;
        granularity = gran;
        buffer_alloc = pragma.Pragma.buffer;
        nvars = site.nvars;
        policy;
        threads;
        static_blocks;
      }
    in
    apply_check () ~parent prog r;
    r
  in
  if not recursive then begin
    let prefix, postwork = split_postwork p.K.body in
    if not (launch_in_block prefix) then
      unsupported
        "kernel %s: the annotated launch must appear before the top-level \
         cudaDeviceSynchronize"
        parent;
    let buf = buf_param and cnt = cnt_param in
    let c_cons = make_consolidated_child site child ~name:cons in
    (* Grid-level postwork runs in a kernel over the buffered items, so
       overflowed items must self-handle their postwork at the fallback
       site; warp/block postwork stays in place per thread and already
       covers them. *)
    let overflow_post =
      match (postwork, gran) with
      | Some pw, Pragma.Grid -> Some (R.rw_block R.no_hooks pw)
      | _ -> None
    in
    let prefix' =
      replace_launch_with_insertions ?overflow_post site ~buf ~cnt prefix
    in
    let post_kernel, designated_post, tail =
      match postwork with
      | None -> (None, None, [])
      | Some pw -> (
        match gran with
        | Pragma.Grid ->
          check_postwork_contract
            ~context:(Printf.sprintf "kernel %s" parent)
            ~allowed:(pragma.Pragma.work @ param_names p.K.params)
            pw;
          let pk = make_post_kernel site ~name:postname ~params:p.K.params pw in
          ( Some pk,
            Some
              ( postname,
                List.map (fun (pp : A.param) -> evar pp.A.pname) p.K.params ),
            [] )
        | Pragma.Warp | Pragma.Block ->
          (* Postwork stays in place: each thread's postwork still matches
             its own (buffered) work, and cudaDeviceSynchronize makes the
             block wait for the consolidated child. *)
          (None, None, A.Device_sync :: R.rw_block R.no_hooks pw))
    in
    let body =
      alloc_stmts pragma ~nvars:site.nvars ~buf ~cnt
      @ prefix' @ barrier_stmts gran
      @ designated_launch_stmts ~cfg ~policy site ~callee:cons ~buf ~cnt
          ~post:designated_post
      @ tail
    in
    let p' =
      K.make ~name:parent ~line:p.K.line
        ~params:
          (List.map (fun (pp : A.param) -> A.param ~ty:pp.A.ptype pp.A.pname)
             p.K.params)
        ~shared:p.K.shared body
    in
    K.Program.add out p';
    K.Program.add out c_cons;
    Option.iter (K.Program.add out) post_kernel;
    finish ~entry:parent ~post_kernel:(Option.map (fun _ -> postname) post_kernel)
  end
  else begin
    (* Recursive kernel: both stages applied to the single kernel. *)
    if contains_return child.K.body then
      unsupported
        "kernel %s: recursive kernels with return are not consolidatable"
        parent;
    (match (site.shape, A.has_syncthreads_block child.K.body) with
    | Cs.Solo_thread, true ->
      unsupported "kernel %s: __syncthreads in a solo-thread kernel" parent
    | _ -> ());
    let prefix, postwork = split_postwork child.K.body in
    if not (launch_in_block prefix) then
      unsupported
        "kernel %s: the recursive launch must appear before the top-level \
         cudaDeviceSynchronize"
        parent;
    let uniform_params = uniform_params_of site child in
    let buf = buf_next and cnt = cnt_next in
    (* Every recursive postwork is buffer-driven (the grid-level postwork
       kernel, or the inline buffer-striding loop at warp/block level), so
       an overflowed item always self-handles its postwork. *)
    let overflow_post =
      Option.map (fun pw -> R.rw_block R.no_hooks pw) postwork
    in
    let prefix' =
      replace_launch_with_insertions
        ~specials:(shape_specials site.shape)
        ?overflow_post site ~buf ~cnt prefix
    in
    let bindings it = fetch_bindings site child ~buf:buf_param it in
    let wrapped = wrap_fetch site ~cnt:cnt_param ~bindings prefix' in
    let allowed = pragma.Pragma.work @ param_names uniform_params in
    let post_kernel, designated_post, tail =
      match postwork with
      | None -> (None, None, [])
      | Some pw -> (
        check_postwork_contract
          ~context:(Printf.sprintf "kernel %s" parent)
          ~allowed pw;
        match gran with
        | Pragma.Grid ->
          let pk =
            make_post_kernel site ~name:postname ~params:uniform_params pw
          in
          ( Some pk,
            Some
              ( postname,
                List.map (fun (pp : A.param) -> evar pp.A.pname)
                  uniform_params ),
            [] )
        | Pragma.Warp | Pragma.Block ->
          (None, None, inline_postwork_stmts site ~buf ~cnt pw))
    in
    let body =
      alloc_stmts pragma ~nvars:site.nvars ~buf ~cnt
      @ wrapped @ barrier_stmts gran
      @ designated_launch_stmts ~cfg ~policy site ~callee:cons ~buf ~cnt
          ~post:designated_post
      @ tail
    in
    let params =
      uniform_params
      @ [ A.param ~ty:A.Tptr_int buf_param; A.param ~ty:A.Tptr_int cnt_param ]
    in
    let c_cons =
      K.make ~name:cons ~line:child.K.line ~params ~shared:child.K.shared body
    in
    K.Program.add out c_cons;
    Option.iter (K.Program.add out) post_kernel;
    finish ~entry:cons
      ~post_kernel:(Option.map (fun _ -> postname) post_kernel)
  end
