(** Mutation harness: known-bad kernels the verifier must catch.

    Each mutant seeds one specific bug class and names the catalog id the
    verifier is required to raise on it; most mutants have a {e clean
    twin} — the same kernel with the bug repaired — that must produce no
    diagnostics at all, pinning the false-positive side of the analyses.
    [dpcc --mutants] and the test suite both run {!all} through {!run}
    and demand zero missed detections and zero dirty twins.

    Three mutant families, one per verification surface:
    - {e lint} mutants are single-kernel programs checked by
      {!Check.check_program} (BD/SM/BN/LC catalogs);
    - {e transform} mutants run {!Dpc.Transform.apply} on a known-good
      annotated fixture and then surgically corrupt the result (dropped
      stores, wrong offsets, missing barriers, ...), checked by
      {!Tv.check} (TV catalog);
    - {e bytecode} mutants are instruction streams — hand-assembled or
      captured from a real lowering and then damaged — checked by
      {!Bcverify.check_stream} (BC catalog). *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module B = Dpc_kir.Build
module P = Dpc_kir.Pragma
open B

(* What a mutant feeds to which verifier.  Builders construct fresh
   values per call: var cells (and the transform fixture) are mutable. *)
type target =
  | Lint of (unit -> K.Program.t)  (** {!Check.check_program} *)
  | Trans of (unit -> string * K.Program.t * Dpc.Transform.result)
      (** parent, original program, (possibly corrupted) transform
          result; checked by {!Tv.check} *)
  | Stream of (unit -> Dpc_sim.Bytecode.stream)
      (** checked by {!Bcverify.check_stream} *)

type mutant = {
  mname : string;
  analysis : string;  (** which pass owns the bug class *)
  expect : string option;
      (** required catalog id; [None] marks a clean twin that must lint
          without a single diagnostic *)
  target : target;
}

let prog_of ks =
  let p = K.Program.create () in
  List.iter (K.Program.add p) ks;
  p

(* ------------------------------------------------------------------ *)
(* Barrier divergence                                                   *)
(* ------------------------------------------------------------------ *)

let bd01_divergent_sync () =
  prog_of
    [
      kernel ~name:"bd01_divergent_sync" ~params:[ p "n" ]
        [ if_then (tid <: v "n") [ sync ] ];
    ]

let bd01_warp_guard_sync () =
  prog_of
    [
      kernel ~name:"bd01_warp_guard_sync"
        [ if_then (warp ==: i 0) [ sync ] ];
    ]

let bd02_grid_barrier_one_block () =
  prog_of
    [
      kernel ~name:"bd02_grid_barrier_one_block"
        [ if_then (bid ==: i 0) [ grid_barrier ] ];
    ]

let bd03_divergent_return () =
  prog_of
    [
      kernel ~name:"bd03_divergent_return"
        [ if_then (tid ==: i 0) [ return ]; sync ];
    ]

let bd_clean_uniform_sync () =
  prog_of
    [
      kernel ~name:"bd_clean_uniform_sync" ~params:[ p "n" ]
        [
          (* block-uniform condition around the barrier is legal *)
          if_then (v "n" >: i 0) [ sync ];
          while_ (v "n" >: i 0) [ sync; set "n" (v "n" -: i 1) ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Shared-memory races                                                  *)
(* ------------------------------------------------------------------ *)

let sm01_broadcast_race () =
  prog_of
    [
      kernel ~name:"sm01_broadcast_race" ~shared:[ ("s", 32) ]
        [ shared_set "s" (i 0) tid ];
    ]

let sm02_missing_sync () =
  prog_of
    [
      kernel ~name:"sm02_missing_sync" ~params:[ p "x" ]
        ~shared:[ ("s", 32) ]
        [
          shared_set "s" tid (v "x");
          (* no __syncthreads: reads the neighbour's slot unordered *)
          set "y" (shared "s" ((tid +: i 1) %: i 32));
        ];
    ]

let sm02_misplaced_barrier () =
  prog_of
    [
      kernel ~name:"sm02_misplaced_barrier" ~params:[ p "n" ]
        ~shared:[ ("s", 32) ]
        [
          for_ "it" ~from:(i 0) ~below:(v "n")
            [
              shared_set "s" tid (v "it");
              sync;
              (* tail read races with the head write of iteration it+1 *)
              set "y" (shared "s" ((tid +: i 1) %: i 32));
            ];
        ];
    ]

let sm_clean_tid_indexed () =
  prog_of
    [
      kernel ~name:"sm_clean_tid_indexed" ~params:[ p "x" ]
        ~shared:[ ("s", 32) ]
        [
          shared_set "s" tid (v "x");
          sync;
          set "y" (shared "s" ((tid +: i 1) %: i 32));
          sync;
          shared_set "s" tid (v "y" +: i 1);
        ];
    ]

let sm_clean_designated_writer () =
  prog_of
    [
      kernel ~name:"sm_clean_designated_writer" ~params:[ p "n" ]
        ~shared:[ ("s", 32) ]
        [
          if_then (tid ==: i 0) [ shared_set "s" (i 0) (v "n") ];
          sync;
          set "y" (shared "s" (i 0));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Bounds and use-before-def                                            *)
(* ------------------------------------------------------------------ *)

let bn01_const_oob () =
  prog_of
    [
      kernel ~name:"bn01_const_oob" ~shared:[ ("s", 64) ]
        [ shared_set "s" (i 64) (i 1) ];
    ]

let bn02_loop_off_by_one () =
  prog_of
    [
      kernel ~name:"bn02_loop_off_by_one" ~shared:[ ("s", 64) ]
        [ for_ "j" ~from:(i 0) ~below:(i 65) [ shared_set "s" (v "j") (i 0) ] ];
    ]

let bn03_use_before_def () =
  prog_of
    [
      kernel ~name:"bn03_use_before_def" ~params:[ p "n" ]
        [ if_then (tid <: v "n") [ set "t" (i 1) ]; set "u" (v "t") ];
    ]

let bn_clean_exact_extent () =
  prog_of
    [
      kernel ~name:"bn_clean_exact_extent" ~shared:[ ("s", 64) ]
        [
          for_ "j" ~from:(i 0) ~below:(i 64) [ shared_set "s" (v "j") (i 0) ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Launch / consolidation legality                                      *)
(* ------------------------------------------------------------------ *)

let child_ok ~name =
  kernel ~name ~params:[ p "x" ] [ set "y" (v "x" +: i 1) ]

let dp ?per_buffer_size ?total_size ?threads ?blocks () =
  P.make ?per_buffer_size ?total_size ?threads ?blocks ~granularity:P.Warp
    ~work:[ "w" ] ()

let lc01_unknown_callee () =
  prog_of
    [
      kernel ~name:"lc01_unknown_callee"
        [ launch "missing_kernel" ~grid:(i 1) ~block:(i 32) [] ];
    ]

let lc02_arity_mismatch () =
  prog_of
    [
      child_ok ~name:"lc02_child";
      kernel ~name:"lc02_arity_mismatch"
        [ launch "lc02_child" ~grid:(i 1) ~block:(i 32) [ i 1; i 2 ] ];
    ]

let lc03_block_too_big () =
  prog_of
    [
      child_ok ~name:"lc03_child";
      kernel ~name:"lc03_block_too_big"
        [ launch "lc03_child" ~grid:(i 1) ~block:(i 2048) [ i 1 ] ];
    ]

let lc05_work_not_arg () =
  prog_of
    [
      child_ok ~name:"lc05_child";
      kernel ~name:"lc05_work_not_arg"
        [
          set "w" gtid;
          launch ~pragma:(dp ()) "lc05_child" ~grid:(i 1) ~block:(i 1)
            [ i 5 ];
        ];
    ]

let lc06_uniform_reads_work () =
  prog_of
    [
      kernel ~name:"lc06_child" ~params:[ p "x"; p "u" ]
        [ set "y" (v "x" +: v "u") ];
      kernel ~name:"lc06_uniform_reads_work"
        [
          set "w" gtid;
          launch ~pragma:(dp ()) "lc06_child" ~grid:(i 1) ~block:(i 1)
            [ v "w"; v "w" +: i 1 ];
        ];
    ]

let lc07_unmaterialized_size () =
  prog_of
    [
      child_ok ~name:"lc07_child";
      kernel ~name:"lc07_unmaterialized_size"
        [
          set "w" gtid;
          launch
            ~pragma:(dp ~per_buffer_size:(P.Size_var "phantom") ())
            "lc07_child" ~grid:(i 1) ~block:(i 1) [ v "w" ];
        ];
    ]

let lc08_pool_too_small () =
  prog_of
    [
      child_ok ~name:"lc08_child";
      kernel ~name:"lc08_pool_too_small"
        [
          set "w" gtid;
          launch
            ~pragma:
              (dp ~per_buffer_size:(P.Size_const 1_000_000) ~total_size:1024
                 ())
            "lc08_child" ~grid:(i 1) ~block:(i 1) [ v "w" ];
        ];
    ]

let lc11_child_returns () =
  prog_of
    [
      kernel ~name:"lc11_child" ~params:[ p "x" ]
        [ if_then (v "x" <: i 0) [ return ]; set "y" (v "x") ];
      kernel ~name:"lc11_child_returns"
        [
          set "w" gtid;
          launch ~pragma:(dp ()) "lc11_child" ~grid:(i 1) ~block:(i 1)
            [ v "w" ];
        ];
    ]

let lc12_solo_thread_syncs () =
  prog_of
    [
      kernel ~name:"lc12_child" ~params:[ p "x" ]
        [ set "y" (v "x"); sync ];
      kernel ~name:"lc12_solo_thread_syncs"
        [
          set "w" gtid;
          launch ~pragma:(dp ()) "lc12_child" ~grid:(i 1) ~block:(i 1)
            [ v "w" ];
        ];
    ]

let lc_clean_annotated_launch () =
  prog_of
    [
      child_ok ~name:"lc_clean_child";
      kernel ~name:"lc_clean_annotated_launch" ~params:[ p "n" ]
        [
          set "w" gtid;
          if_then (v "w" <: v "n")
            [
              launch
                ~pragma:(dp ~per_buffer_size:(P.Size_const 8) ~threads:256 ())
                "lc_clean_child" ~grid:(i 1) ~block:(i 1) [ v "w" ];
            ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Transform translation-validation mutants                             *)
(*                                                                      *)
(* A known-good annotated fixture (the Fig. 1 template reduced to the   *)
(* bone) is transformed for real, then the *result* is corrupted the    *)
(* way a codegen bug would corrupt it; [Tv.check] must catch every      *)
(* corruption and stay silent on the pristine result.                   *)
(* ------------------------------------------------------------------ *)

module V = Dpc_kir.Value
module T = Dpc.Transform
module Bc = Dpc_sim.Bytecode

let tv_parent = "tv_parent"
let tv_child = "tv_child"

let tv_prog gran =
  prog_of
    [
      kernel ~name:"tv_bystander" ~params:[ p "n" ]
        [ set "z" (v "n" +: i 1) ];
      child_ok ~name:tv_child;
      kernel ~name:tv_parent ~params:[ p "n" ]
        [
          set "w" gtid;
          if_then (v "w" <: v "n")
            [
              launch
                ~pragma:
                  (P.make ~per_buffer_size:(P.Size_const 64) ~threads:128
                     ~granularity:gran ~work:[ "w" ] ())
                tv_child ~grid:(i 1) ~block:(i 32) [ v "w" ];
            ];
        ];
    ]

(* Program surgery: rebuild the result program with one kernel's body
   deep-copied and edited.  [f] runs top-down on every statement;
   [Some repl] substitutes, [None] descends. *)
let rec edit_stmts f stmts =
  List.concat_map
    (fun s ->
      match f s with
      | Some repl -> repl
      | None ->
        [
          (match s with
          | A.If (c, t, e) -> A.If (c, edit_stmts f t, edit_stmts f e)
          | A.While (c, b) -> A.While (c, edit_stmts f b)
          | A.For (iv, lo, hi, b) -> A.For (iv, lo, hi, edit_stmts f b)
          | s -> s);
        ])
    stmts

let copy_params ps =
  List.map (fun (pr : A.param) -> A.param ~ty:pr.A.ptype pr.A.pname) ps

let remake (k : K.t) body =
  K.make ~name:k.K.kname ~params:(copy_params k.K.params) ~shared:k.K.shared
    body

let map_program f prog =
  let out = K.Program.create () in
  List.iter
    (fun k -> Option.iter (K.Program.add out) (f k))
    (K.Program.kernels prog);
  out

let edit_kernel name f prog =
  map_program
    (fun k ->
      Some
        (if k.K.kname = name then remake k (edit_stmts f (A.copy_block k.K.body))
         else k))
    prog

let append_to_kernel name extra prog =
  map_program
    (fun k ->
      Some
        (if k.K.kname = name then remake k (A.copy_block k.K.body @ extra)
         else k))
    prog

(* One TV mutant: transform the fixture at [gran], corrupt the result. *)
let tv_case ?(gran = P.Block) corrupt () =
  let orig = tv_prog gran in
  let r = T.apply ~cfg:Dpc_gpu.Config.k20c ~parent:tv_parent orig in
  (tv_parent, orig, corrupt r)

let on_program f (r : T.result) = { r with T.program = f r.T.program }

let is_cons_buf = function
  | A.Var vr -> vr.A.name = "__cons_buf" || vr.A.name = "__cons_buf_next"
  | _ -> false

let is_cons_cnt = function
  | A.Var vr -> vr.A.name = "__cons_cnt" || vr.A.name = "__cons_cnt_next"
  | _ -> false

let reads_cnt e =
  let found = ref false in
  A.iter_expr
    (fun x -> match x with A.Load (b, _) when is_cons_cnt b -> found := true | _ -> ())
    e;
  !found

let rec replace_cnt_read e =
  match e with
  | A.Load (b, _) when is_cons_cnt b -> A.Const (V.Vint 64)
  | A.Binop (op, a, b) -> A.Binop (op, replace_cnt_read a, replace_cnt_read b)
  | A.Unop (op, a) -> A.Unop (op, replace_cnt_read a)
  | e -> e

(* TV01: kernel-set preservation *)
let tv01_lost_cons =
  tv_case (fun r ->
      on_program
        (map_program (fun k ->
             if k.K.kname = r.T.cons_kernel then None else Some k))
        r)

let tv01_unexpected_kernel =
  tv_case
    (on_program (fun prog ->
         let out = map_program Option.some prog in
         K.Program.add out (kernel ~name:"tv_sneaky" [ set "q" (i 0) ]);
         out))

let tv01_touched_bystander =
  tv_case
    (on_program (append_to_kernel "tv_bystander" [ set "z2" (i 0) ]))

(* TV02: insertion-side work conservation (host = transformed parent) *)
let drop_buf_store = function
  | A.Store (b, _, _) when is_cons_buf b -> Some []
  | _ -> None

let tv02_dropped_store =
  tv_case (on_program (edit_kernel tv_parent drop_buf_store))

let tv02_double_store =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Store (b, _, _) as st when is_cons_buf b ->
           Some [ st; A.copy_stmt st ]
         | _ -> None)))

let tv02_no_fallback =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Launch { callee; pragma = None; _ } when callee = tv_child ->
           Some []
         | _ -> None)))

(* TV03: fetch-side work conservation (in the consolidated kernel) *)
let tv03_wrong_fetch_offset =
  tv_case (fun r ->
      on_program
        (edit_kernel r.T.cons_kernel (function
          | A.Let (lv, A.Load (b, A.Binop (A.Add, m, A.Const (V.Vint 0))))
            when is_cons_buf b ->
            Some [ A.Let (lv, A.Load (b, A.Binop (A.Add, m, A.Const (V.Vint 1)))) ]
          | _ -> None))
        r)

let tv03_unbounded_fetch_loop =
  tv_case (fun r ->
      on_program
        (edit_kernel r.T.cons_kernel (function
          | A.While (c, b) when reads_cnt c ->
            Some [ A.While (replace_cnt_read c, b) ]
          | A.For (iv, lo, hi, b) when reads_cnt hi ->
            Some [ A.For (iv, lo, replace_cnt_read hi, b) ]
          | _ -> None))
        r)

(* TV04: buffer-footprint preservation *)
let tv04_store_outside_item =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Store (b, A.Binop (A.Add, m, A.Const (V.Vint 0)), x)
           when is_cons_buf b ->
           Some [ A.Store (b, A.Binop (A.Add, m, A.Const (V.Vint 2)), x) ]
         | _ -> None)))

let tv04_counter_nonzero_index =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Atomic ({ idx = A.Const (V.Vint 0); buf; _ } as a)
           when is_cons_cnt buf ->
           Some [ A.Atomic { a with idx = A.Const (V.Vint 1) } ]
         | _ -> None)))

(* TV05: pragma-contract conformance (block granularity fixture) *)
let tv05_missing_barrier =
  tv_case
    (on_program
       (edit_kernel tv_parent (function A.Syncthreads -> Some [] | _ -> None)))

let tv05_wrong_alloc_scope =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Malloc { dst; count; scope = _; _ } when dst.A.name = "__cons_buf"
           ->
           Some [ A.Malloc { dst; count; scope = A.Per_warp; site = -1 } ]
         | _ -> None)))

let tv05_missing_clamp =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.Store (c, A.Const (V.Vint 0), A.Binop (A.Min, _, _))
           when is_cons_cnt c ->
           Some []
         | _ -> None)))

let tv05_no_designated_guard =
  tv_case
    (on_program
       (edit_kernel tv_parent (function
         | A.If (A.Binop (A.And, A.Binop (A.Eq, A.Special _, _), _), _, _) ->
           Some []
         | _ -> None)))

(* TV06: lint-clean preservation — a transform bug that manufactures a
   divergent barrier in the consolidated kernel *)
let tv06_lint_regression =
  tv_case (fun r ->
      on_program
        (append_to_kernel r.T.cons_kernel [ if_then (tid ==: i 0) [ sync ] ])
        r)

(* TV07: result-metadata consistency *)
let tv07_wrong_nvars = tv_case (fun r -> { r with T.nvars = r.T.nvars + 1 })

let tv07_phantom_postwork =
  tv_case (fun r -> { r with T.post_kernel = Some "tv_ghost_post" })

let tv07_missing_entry = tv_case (fun r -> { r with T.entry = "tv_no_such" })

(* Clean twins: the pristine result at each granularity. *)
let tv_clean_warp = tv_case ~gran:P.Warp Fun.id
let tv_clean_block = tv_case ~gran:P.Block Fun.id
let tv_clean_grid = tv_case ~gran:P.Grid Fun.id

(* ------------------------------------------------------------------ *)
(* Bytecode-stream mutants                                              *)
(*                                                                      *)
(* Hand-assembled streams exercise each BC class with a pinpoint        *)
(* corruption; one pair captures a real lowering and damages it, tying  *)
(* the synthetic encoding to the actual one.                            *)
(* ------------------------------------------------------------------ *)

let bc_stream ?(nic = 2) ?(nfc = 1) ?(ntmpi = 2) ?(ntmpf = 1)
    ?(nint = 4) ?(nflt = 2) ?(nsites = 2) ?(nshared = 1)
    ?(nnames = 2) ?result code () =
  {
    Bc.s_kname = "bc_mutant";
    s_code = Array.of_list code;
    s_nic = nic;
    s_nfc = nfc;
    s_ntmpi = ntmpi;
    s_ntmpf = ntmpf;
    s_nint = nint;
    s_nflt = nflt;
    s_nsites = nsites;
    s_nshared = nshared;
    s_nnames = nnames;
    s_result = result;
  }

(* Encoding cheat sheet (mirrors the executor): FUSE groups are
   [7; n; _; (sub-op a b d) * n]; sub-op 0 is integer add, 3/4 are
   div/mod (raising), 18 float add, 41 SPECIAL.  Operand [r < 0] is
   constant-pool row [-r-1]; [r >= temp_base] is temp row. *)
let bc01_unknown_opcode = bc_stream [ 99 ]
let bc02_truncated_fuse_quad = bc_stream [ 7; 2; 0; 0; 0; 1; 2 ]
let bc02_short_if = bc_stream [ 3; 0; 0 ]
let bc03_int_row_oob = bc_stream [ 7; 1; 0; 0; 9; 1; 2 ]
let bc03_int_temp_oob = bc_stream [ 7; 1; 0; 0; Bc.temp_base + 5; 1; 2 ]
let bc03_int_const_oob = bc_stream [ 7; 1; 0; 0; -5; 1; 2 ]
let bc04_float_row_oob = bc_stream [ 7; 1; 0; 18; 5; 0; 1 ]
let bc05_unknown_subop = bc_stream [ 7; 1; 0; 77; 0; 0; 0 ]
let bc05_mixed_raising = bc_stream [ 7; 2; 0; 3; 0; 1; 2; 4; 0; 1; 3 ]
let bc05_bad_special_kind = bc_stream [ 7; 1; 0; 41; 9; 0; 2 ]
let bc06_if_backward_target = bc_stream [ 3; 0; 0; 2; 9 ]
let bc06_bad_cond_kind = bc_stream [ 3; 5; 0; 5; 5 ]
let bc06_while_backward_test = bc_stream [ 4; 2; 9 ]
let bc08_shared_slot_oob = bc_stream [ 13; 0; 1; 5; 0 ]
let bc08_shstore_bad_kind = bc_stream [ 14; 7; 0; 0; 0; 0 ]
let bc09_write_to_const = bc_stream [ 7; 1; 0; 0; 0; 1; -1 ]

let bc_clean_straightline =
  bc_stream [ 7; 1; 0; 0; 0; 1; 2; 8; 0; 1; 3; 12; 0; 2; 18; 1 ]

let bc_clean_structured =
  bc_stream [ 3; 0; 0; 12; 12; 7; 1; 0; 0; 0; 1; 2 ]

(* A real lowering, pristine and with a damaged tail. *)
let bc_real_stream () =
  let k =
    kernel ~name:"bc_real" ~params:[ p "n" ]
      [ if_then (v "n" >: i 0) [ set "x" (v "n" +: i 1) ] ]
  in
  K.finalize k;
  match Bc.streams_of_kernel k with
  | Some (s :: _) -> s
  | _ -> failwith "bc_real: kernel did not lower to bytecode"

let bc01_real_damaged_tail () =
  let s = bc_real_stream () in
  { s with Bc.s_code = Array.append s.Bc.s_code [| 99 |] }

let bc_clean_real_lowering () = bc_real_stream ()

(* The natively lowered statement ops: ATOMIC [15; kind; op; b; i; o; c;
   dk; d], MALLOC [16; scope; site; n; d] and SHLOADN [17; i; d; sh;
   nm]. *)
let bc01_atomic_bad_op = bc_stream [ 15; 0; 7; 0; 1; 2; 0; 0; 0 ]
let bc01_malloc_bad_scope = bc_stream [ 16; 5; 0; 0; 3 ]
let bc02_truncated_atomic = bc_stream [ 15; 0; 0; 0 ]
let bc03_atomic_buffer_oob = bc_stream [ 15; 0; 0; 9; 1; 2; 0; 0; 0 ]
let bc04_atomic_float_operand_oob = bc_stream [ 15; 1; 0; 0; 1; 5; 0; 0; 0 ]
let bc04_shloadn_dst_oob = bc_stream [ 17; 0; 7; 0; 0 ]
let bc07_malloc_site_oob = bc_stream [ 16; 0; 7; 0; 3 ]
let bc08_shloadn_slot_oob = bc_stream [ 17; 0; 1; 5; 0 ]
let bc09_atomic_old_to_const = bc_stream [ 15; 0; 0; 0; 1; 2; 0; 1; -1 ]
let bc09_malloc_dst_const = bc_stream [ 16; 0; 0; 0; -2 ]

let bc_clean_native_ops =
  bc_stream
    [ 15; 0; 0; 0; 1; 2; 0; 1; 3;  (* int atomicAdd, old -> int row 3 *)
      15; 1; 4; 0; 1; 0; 2; 1; 1;  (* float CAS, old -> float row 1 *)
      16; 1; 0; -1; 3;  (* per-block malloc, count from the pool *)
      17; 0; 1; 0; 0 ]

(* A real lowering of every natively lowered statement kind — a per-warp
   malloc, an atomic returning its old value — pristine and with its
   ATOMIC buffer kind damaged. *)
let bc_real_native_stream () =
  let k =
    kernel ~name:"bc_native" ~params:[ pi "a"; p "n" ]
      [
        malloc ~scope:A.Per_warp "buf" (i 4);
        atomic_add ~old:"old" (v "a") (i 0) (v "n");
        store (v "buf") (i 0) (v "old");
      ]
  in
  K.finalize k;
  match Bc.streams_of_kernel k with
  | Some [ s ] -> s
  | _ -> failwith "bc_native: kernel did not lower natively"

let bc01_real_atomic_bad_kind () =
  let s = bc_real_native_stream () in
  let code = Array.copy s.Bc.s_code in
  let rec find p = if code.(p) = 15 then p else find (p + 1) in
  let p = find 0 in
  code.(p + 1) <- 2;
  { s with Bc.s_code = code }

let bc_clean_real_native () = bc_real_native_stream ()

(* The device runtime ops: LAUNCH [2; nm; gk; g; bk; b; n; (ak a)*n]
   (callee id, grid/block kind and register, then each argument's kind
   0 int / 1 float / 2 buffer and register), DEVSYNC [18], FREE [19; b];
   and a uniform-condition program, whose value (kind, register) rides
   in [s_result]. *)
let bc01_launch_bad_arg_kind = bc_stream [ 2; 0; 0; 0; 0; 0; 1; 5; 0 ]
let bc02_truncated_launch = bc_stream [ 2; 0; 0; 0; 0; 0; 3; 0; 0 ]
let bc03_launch_arg_row_oob = bc_stream [ 2; 0; 0; 0; 0; 0; 1; 0; 9 ]
let bc04_launch_float_grid_oob = bc_stream [ 2; 0; 1; 5; 0; 0; 0 ]
let bc07_launch_callee_oob = bc_stream [ 2; 5; 0; 0; 0; 0; 0 ]
let bc03_free_buffer_oob = bc_stream [ 19; 9 ]
let bc06_uniform_bad_kind = bc_stream ~result:(3, 0) [ 7; 1; 0; 38; 0; 0; 1 ]
let bc03_uniform_value_oob = bc_stream ~result:(0, 9) [ 7; 1; 0; 38; 0; 0; 1 ]

let bc_clean_runtime_ops =
  bc_stream
    [ 2; 1; 0; 0; 1; -1; 3; 0; 1; 1; 0; 2; 2;  (* int grid, float block *)
      18; 19; 2 ]

let bc_clean_uniform_cond =
  bc_stream ~result:(0, Bc.temp_base)
    [ 7; 1; 0; 14; 0; 1; Bc.temp_base ]

(* A real lowering of the device runtime — launches with int, float and
   buffer arguments (the first one opens the kernel, so its stream
   starts [FILTER; LAUNCH ...]), a divergent one, a device sync, a free
   — and of a block-uniform loop around a barrier, pristine and damaged:
   a LAUNCH argument row moved outside its plane, a uniform condition's
   value kind corrupted. *)
let bc_real_runtime_streams () =
  let child =
    kernel ~name:"bc_child" ~params:[ p "n"; pf "x"; pi "a" ]
      [ store (v "a") tid (v "n") ]
  in
  let k =
    kernel ~name:"bc_runtime" ~params:[ pi "a"; p "n" ]
      ~shared:[ ("sh", 32) ]
      [
        launch "bc_child" ~grid:(i 1) ~block:(i 32) [ v "n"; f 0.5; v "a" ];
        malloc ~scope:A.Per_block "buf" (i 4);
        if_then (tid <: v "n")
          [ launch "bc_child" ~grid:(i 1) ~block:(to_float (i 32))
              [ v "n"; f 0.5; v "a" ] ];
        device_sync;
        for_ "it" ~from:(i 0) ~below:(v "n")
          [ shared_set "sh" tid (v "it"); sync ];
        free (v "buf");
      ]
  in
  ignore (prog_of [ child; k ]);
  K.finalize k;
  match Bc.streams_of_kernel k with
  | Some streams -> streams
  | None -> failwith "bc_runtime: kernel did not lower"

let bc_real_runtime_stream () =
  match bc_real_runtime_streams () with
  | s :: _ when s.Bc.s_code.(0) = 0 && s.Bc.s_code.(1) = 2 -> s
  | _ -> failwith "bc_runtime: unexpected stream layout"

let bc_real_uniform_stream () =
  List.find (fun s -> s.Bc.s_result <> None) (bc_real_runtime_streams ())

let bc03_real_launch_arg_oob () =
  let s = bc_real_runtime_stream () in
  let code = Array.copy s.Bc.s_code in
  (* [FILTER; LAUNCH nm gk g bk b 3; 0 n; ...]: the first argument's
     int register sits at index 9 *)
  code.(9) <- s.Bc.s_nint + 3;
  { s with Bc.s_code = code }

let bc06_real_uniform_bad_kind () =
  let s = bc_real_uniform_stream () in
  { s with Bc.s_result = Option.map (fun (_, r) -> (7, r)) s.Bc.s_result }

let bc_clean_real_runtime () = bc_real_runtime_stream ()
let bc_clean_real_uniform () = bc_real_uniform_stream ()

(* ------------------------------------------------------------------ *)
(* The catalog                                                          *)
(* ------------------------------------------------------------------ *)

let all : mutant list =
  [
    { mname = "bd01_divergent_sync"; analysis = "uniformity";
      expect = Some "BD01"; target = Lint bd01_divergent_sync };
    { mname = "bd01_warp_guard_sync"; analysis = "uniformity";
      expect = Some "BD01"; target = Lint bd01_warp_guard_sync };
    { mname = "bd02_grid_barrier_one_block"; analysis = "uniformity";
      expect = Some "BD02"; target = Lint bd02_grid_barrier_one_block };
    { mname = "bd03_divergent_return"; analysis = "uniformity";
      expect = Some "BD03"; target = Lint bd03_divergent_return };
    { mname = "bd_clean_uniform_sync"; analysis = "uniformity";
      expect = None; target = Lint bd_clean_uniform_sync };
    { mname = "sm01_broadcast_race"; analysis = "races";
      expect = Some "SM01"; target = Lint sm01_broadcast_race };
    { mname = "sm02_missing_sync"; analysis = "races";
      expect = Some "SM02"; target = Lint sm02_missing_sync };
    { mname = "sm02_misplaced_barrier"; analysis = "races";
      expect = Some "SM02"; target = Lint sm02_misplaced_barrier };
    { mname = "sm_clean_tid_indexed"; analysis = "races";
      expect = None; target = Lint sm_clean_tid_indexed };
    { mname = "sm_clean_designated_writer"; analysis = "races";
      expect = None; target = Lint sm_clean_designated_writer };
    { mname = "bn01_const_oob"; analysis = "bounds";
      expect = Some "BN01"; target = Lint bn01_const_oob };
    { mname = "bn02_loop_off_by_one"; analysis = "bounds";
      expect = Some "BN02"; target = Lint bn02_loop_off_by_one };
    { mname = "bn03_use_before_def"; analysis = "bounds";
      expect = Some "BN03"; target = Lint bn03_use_before_def };
    { mname = "bn_clean_exact_extent"; analysis = "bounds";
      expect = None; target = Lint bn_clean_exact_extent };
    { mname = "lc01_unknown_callee"; analysis = "legality";
      expect = Some "LC01"; target = Lint lc01_unknown_callee };
    { mname = "lc02_arity_mismatch"; analysis = "legality";
      expect = Some "LC02"; target = Lint lc02_arity_mismatch };
    { mname = "lc03_block_too_big"; analysis = "legality";
      expect = Some "LC03"; target = Lint lc03_block_too_big };
    { mname = "lc05_work_not_arg"; analysis = "legality";
      expect = Some "LC05"; target = Lint lc05_work_not_arg };
    { mname = "lc06_uniform_reads_work"; analysis = "legality";
      expect = Some "LC06"; target = Lint lc06_uniform_reads_work };
    { mname = "lc07_unmaterialized_size"; analysis = "legality";
      expect = Some "LC07"; target = Lint lc07_unmaterialized_size };
    { mname = "lc08_pool_too_small"; analysis = "legality";
      expect = Some "LC08"; target = Lint lc08_pool_too_small };
    { mname = "lc11_child_returns"; analysis = "legality";
      expect = Some "LC11"; target = Lint lc11_child_returns };
    { mname = "lc12_solo_thread_syncs"; analysis = "legality";
      expect = Some "LC12"; target = Lint lc12_solo_thread_syncs };
    { mname = "lc_clean_annotated_launch"; analysis = "legality";
      expect = None; target = Lint lc_clean_annotated_launch };
    { mname = "tv01_lost_cons"; analysis = "tv";
      expect = Some "TV01"; target = Trans tv01_lost_cons };
    { mname = "tv01_unexpected_kernel"; analysis = "tv";
      expect = Some "TV01"; target = Trans tv01_unexpected_kernel };
    { mname = "tv01_touched_bystander"; analysis = "tv";
      expect = Some "TV01"; target = Trans tv01_touched_bystander };
    { mname = "tv02_dropped_store"; analysis = "tv";
      expect = Some "TV02"; target = Trans tv02_dropped_store };
    { mname = "tv02_double_store"; analysis = "tv";
      expect = Some "TV02"; target = Trans tv02_double_store };
    { mname = "tv02_no_fallback"; analysis = "tv";
      expect = Some "TV02"; target = Trans tv02_no_fallback };
    { mname = "tv03_wrong_fetch_offset"; analysis = "tv";
      expect = Some "TV03"; target = Trans tv03_wrong_fetch_offset };
    { mname = "tv03_unbounded_fetch_loop"; analysis = "tv";
      expect = Some "TV03"; target = Trans tv03_unbounded_fetch_loop };
    { mname = "tv04_store_outside_item"; analysis = "tv";
      expect = Some "TV04"; target = Trans tv04_store_outside_item };
    { mname = "tv04_counter_nonzero_index"; analysis = "tv";
      expect = Some "TV04"; target = Trans tv04_counter_nonzero_index };
    { mname = "tv05_missing_barrier"; analysis = "tv";
      expect = Some "TV05"; target = Trans tv05_missing_barrier };
    { mname = "tv05_wrong_alloc_scope"; analysis = "tv";
      expect = Some "TV05"; target = Trans tv05_wrong_alloc_scope };
    { mname = "tv05_missing_clamp"; analysis = "tv";
      expect = Some "TV05"; target = Trans tv05_missing_clamp };
    { mname = "tv05_no_designated_guard"; analysis = "tv";
      expect = Some "TV05"; target = Trans tv05_no_designated_guard };
    { mname = "tv06_lint_regression"; analysis = "tv";
      expect = Some "TV06"; target = Trans tv06_lint_regression };
    { mname = "tv07_wrong_nvars"; analysis = "tv";
      expect = Some "TV07"; target = Trans tv07_wrong_nvars };
    { mname = "tv07_phantom_postwork"; analysis = "tv";
      expect = Some "TV07"; target = Trans tv07_phantom_postwork };
    { mname = "tv07_missing_entry"; analysis = "tv";
      expect = Some "TV07"; target = Trans tv07_missing_entry };
    { mname = "tv_clean_warp"; analysis = "tv";
      expect = None; target = Trans tv_clean_warp };
    { mname = "tv_clean_block"; analysis = "tv";
      expect = None; target = Trans tv_clean_block };
    { mname = "tv_clean_grid"; analysis = "tv";
      expect = None; target = Trans tv_clean_grid };
    { mname = "bc01_unknown_opcode"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_unknown_opcode };
    { mname = "bc01_real_damaged_tail"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_real_damaged_tail };
    { mname = "bc02_truncated_fuse_quad"; analysis = "bytecode";
      expect = Some "BC02"; target = Stream bc02_truncated_fuse_quad };
    { mname = "bc02_short_if"; analysis = "bytecode";
      expect = Some "BC02"; target = Stream bc02_short_if };
    { mname = "bc03_int_row_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_int_row_oob };
    { mname = "bc03_int_temp_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_int_temp_oob };
    { mname = "bc03_int_const_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_int_const_oob };
    { mname = "bc04_float_row_oob"; analysis = "bytecode";
      expect = Some "BC04"; target = Stream bc04_float_row_oob };
    { mname = "bc05_unknown_subop"; analysis = "bytecode";
      expect = Some "BC05"; target = Stream bc05_unknown_subop };
    { mname = "bc05_mixed_raising"; analysis = "bytecode";
      expect = Some "BC05"; target = Stream bc05_mixed_raising };
    { mname = "bc05_bad_special_kind"; analysis = "bytecode";
      expect = Some "BC05"; target = Stream bc05_bad_special_kind };
    { mname = "bc06_if_backward_target"; analysis = "bytecode";
      expect = Some "BC06"; target = Stream bc06_if_backward_target };
    { mname = "bc06_bad_cond_kind"; analysis = "bytecode";
      expect = Some "BC06"; target = Stream bc06_bad_cond_kind };
    { mname = "bc06_while_backward_test"; analysis = "bytecode";
      expect = Some "BC06"; target = Stream bc06_while_backward_test };
    { mname = "bc08_shared_slot_oob"; analysis = "bytecode";
      expect = Some "BC08"; target = Stream bc08_shared_slot_oob };
    { mname = "bc08_shstore_bad_kind"; analysis = "bytecode";
      expect = Some "BC08"; target = Stream bc08_shstore_bad_kind };
    { mname = "bc09_write_to_const"; analysis = "bytecode";
      expect = Some "BC09"; target = Stream bc09_write_to_const };
    { mname = "bc01_atomic_bad_op"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_atomic_bad_op };
    { mname = "bc01_malloc_bad_scope"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_malloc_bad_scope };
    { mname = "bc01_real_atomic_bad_kind"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_real_atomic_bad_kind };
    { mname = "bc02_truncated_atomic"; analysis = "bytecode";
      expect = Some "BC02"; target = Stream bc02_truncated_atomic };
    { mname = "bc03_atomic_buffer_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_atomic_buffer_oob };
    { mname = "bc04_atomic_float_operand_oob"; analysis = "bytecode";
      expect = Some "BC04"; target = Stream bc04_atomic_float_operand_oob };
    { mname = "bc04_shloadn_dst_oob"; analysis = "bytecode";
      expect = Some "BC04"; target = Stream bc04_shloadn_dst_oob };
    { mname = "bc07_malloc_site_oob"; analysis = "bytecode";
      expect = Some "BC07"; target = Stream bc07_malloc_site_oob };
    { mname = "bc08_shloadn_slot_oob"; analysis = "bytecode";
      expect = Some "BC08"; target = Stream bc08_shloadn_slot_oob };
    { mname = "bc09_atomic_old_to_const"; analysis = "bytecode";
      expect = Some "BC09"; target = Stream bc09_atomic_old_to_const };
    { mname = "bc09_malloc_dst_const"; analysis = "bytecode";
      expect = Some "BC09"; target = Stream bc09_malloc_dst_const };
    { mname = "bc_clean_straightline"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_straightline };
    { mname = "bc_clean_structured"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_structured };
    { mname = "bc_clean_real_lowering"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_real_lowering };
    { mname = "bc_clean_native_ops"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_native_ops };
    { mname = "bc_clean_real_native"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_real_native };
    { mname = "bc01_launch_bad_arg_kind"; analysis = "bytecode";
      expect = Some "BC01"; target = Stream bc01_launch_bad_arg_kind };
    { mname = "bc02_truncated_launch"; analysis = "bytecode";
      expect = Some "BC02"; target = Stream bc02_truncated_launch };
    { mname = "bc03_launch_arg_row_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_launch_arg_row_oob };
    { mname = "bc03_real_launch_arg_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_real_launch_arg_oob };
    { mname = "bc03_free_buffer_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_free_buffer_oob };
    { mname = "bc03_uniform_value_oob"; analysis = "bytecode";
      expect = Some "BC03"; target = Stream bc03_uniform_value_oob };
    { mname = "bc04_launch_float_grid_oob"; analysis = "bytecode";
      expect = Some "BC04"; target = Stream bc04_launch_float_grid_oob };
    { mname = "bc06_uniform_bad_kind"; analysis = "bytecode";
      expect = Some "BC06"; target = Stream bc06_uniform_bad_kind };
    { mname = "bc06_real_uniform_bad_kind"; analysis = "bytecode";
      expect = Some "BC06"; target = Stream bc06_real_uniform_bad_kind };
    { mname = "bc07_launch_callee_oob"; analysis = "bytecode";
      expect = Some "BC07"; target = Stream bc07_launch_callee_oob };
    { mname = "bc_clean_runtime_ops"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_runtime_ops };
    { mname = "bc_clean_uniform_cond"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_uniform_cond };
    { mname = "bc_clean_real_runtime"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_real_runtime };
    { mname = "bc_clean_real_uniform"; analysis = "bytecode";
      expect = None; target = Stream bc_clean_real_uniform };
  ]

type outcome = {
  mutant : mutant;
  diags : Diag.t list;
  ok : bool;
      (** seeded mutants: the expected id was raised; clean twins: not a
          single diagnostic *)
}

let run ?cfg (m : mutant) : outcome =
  let diags =
    match m.target with
    | Lint build -> Check.check_program ?cfg (build ())
    | Trans build ->
      let parent, orig, r = build () in
      Tv.check ?cfg ~parent ~orig r
    | Stream build -> Bcverify.check_stream (build ())
  in
  let ok =
    match m.expect with
    | Some id -> List.exists (fun (d : Diag.t) -> d.Diag.id = id) diags
    | None -> diags = []
  in
  { mutant = m; diags; ok }

let run_all ?cfg () : outcome list = List.map (run ?cfg) all

let all_detected ?cfg () = List.for_all (fun o -> o.ok) (run_all ?cfg ())
