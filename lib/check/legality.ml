(** Launch and consolidation legality (LC01–LC12).

    A whole-program pass over every device-side [Launch] node.  The first
    group holds for any launch:

    - [LC01] (error): the callee is not a kernel of the program.
    - [LC02] (error): argument count differs from the callee's parameter
      count.
    - [LC03] (error): a constant block size outside
      [[1, max_threads_per_block]] of the device.
    - [LC04] (error): a constant grid size outside
      [[1, max_grid_blocks]].

    The second group vets [#pragma dp] annotations against the
    consolidation transform's source contract (the checks mirror
    {!Dpc.Transform}'s [Unsupported] conditions, so a program that lints
    clean will not be rejected mid-transformation), plus sizing sanity:

    - [LC05] (error): a [work] variable is not a launch argument.
    - [LC06] (error): a uniform (non-work) launch argument reads a work
      variable — the capture would miss its per-thread value.
    - [LC07] (error): [perBufferSize] names a variable that is never
      materialized in the annotated kernel (not a parameter and never
      assigned), so the buffering code could not read it.
    - [LC08] (error): [perBufferSize] and [totalSize] are inconsistent —
      a single consolidation buffer already overflows the pool.
    - [LC09] (error): a [threads] clause outside
      [[1, max_threads_per_block]].
    - [LC10] (error): a [blocks] clause outside [[1, max_grid_blocks]].
    - [LC11] (error): the annotated child kernel contains [return]
      (consolidated items share the fetch loop; an early exit would drop
      the remaining items).
    - [LC12] (error): a solo-thread child (launched [<<<1, 1>>>]) uses
      [__syncthreads]; after consolidation each item is one thread of a
      cooperative block, so the barrier changes meaning. *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module P = Dpc_kir.Pragma
module Cfg = Dpc_gpu.Config

(* Bytes per buffered work item: each work variable is one int slot. *)
let bytes_per_int = 4

(* Names materialized in a kernel: parameters and every binder. *)
let materialized (k : K.t) =
  let names = Hashtbl.create 16 in
  List.iter (fun (p : A.param) -> Hashtbl.replace names p.A.pname ()) k.K.params;
  List.iter
    (A.iter_stmt
       ~on_stmt:(fun s ->
         match s with
         | A.Let (v, _) | A.For (v, _, _, _) | A.Malloc { dst = v; _ } ->
           Hashtbl.replace names v.A.name ()
         | A.Atomic { old = Some v; _ } -> Hashtbl.replace names v.A.name ()
         | _ -> ())
       ~on_expr:(fun _ -> ()))
    k.K.body;
  names

let solo_thread ~grid ~block =
  match (Expr_util.const_int grid, Expr_util.const_int block) with
  | Some 1, Some 1 -> true
  | _ -> false

let has_return (k : K.t) =
  let f = ref false in
  A.iter_block k.K.body
    ~on_stmt:(function A.Return -> f := true | _ -> ())
    ~on_expr:(fun _ -> ());
  !f

let check_kernel ~(cfg : Cfg.t) (prog : K.Program.t option) (k : K.t) :
    Diag.t list =
  let diags = ref [] in
  let emit ?line ~id ~path fmt =
    let line = match line with Some l when l > 0 -> l | _ -> k.K.line in
    Printf.ksprintf
      (fun message ->
        diags :=
          Diag.make ~id ~severity:Diag.Error ~kernel:k.K.kname ~path ~line
            "%s" message
          :: !diags)
      fmt
  in
  let mat = lazy (materialized k) in
  let check_launch path (l : A.launch) =
    let callee =
      match prog with
      | None -> None
      | Some prog -> (
        match K.Program.find_opt prog l.A.callee with
        | Some c -> Some c
        | None ->
          emit ~id:"LC01" ~path "launch of unknown kernel %s" l.A.callee;
          None)
    in
    (match callee with
    | Some c when List.length l.A.args <> List.length c.K.params ->
      emit ~id:"LC02" ~path
        "launch of %s passes %d arguments; the kernel declares %d \
         parameters"
        l.A.callee
        (List.length l.A.args)
        (List.length c.K.params)
    | _ -> ());
    (match Expr_util.const_int ~warp_size:cfg.Cfg.warp_size l.A.block with
    | Some b when b < 1 || b > cfg.Cfg.max_threads_per_block ->
      emit ~id:"LC03" ~path
        "block size %d outside [1, %d] of device %s" b
        cfg.Cfg.max_threads_per_block cfg.Cfg.name
    | _ -> ());
    (match Expr_util.const_int ~warp_size:cfg.Cfg.warp_size l.A.grid with
    | Some g when g < 1 || g > cfg.Cfg.max_grid_blocks ->
      emit ~id:"LC04" ~path "grid size %d outside [1, %d] of device %s" g
        cfg.Cfg.max_grid_blocks cfg.Cfg.name
    | _ -> ());
    match l.A.pragma with
    | None -> ()
    | Some p ->
      let line = p.P.line in
      let arg_var_names =
        List.filter_map
          (fun (a : A.expr) ->
            match a with A.Var v -> Some v.A.name | _ -> None)
          l.A.args
      in
      List.iter
        (fun w ->
          if not (List.mem w arg_var_names) then
            emit ~line ~id:"LC05" ~path
              "work variable %s is not a launch argument" w)
        p.P.work;
      List.iter
        (fun (a : A.expr) ->
          let is_work_var =
            match a with
            | A.Var v -> List.mem v.A.name p.P.work
            | _ -> false
          in
          if not is_work_var then
            A.iter_expr
              (fun x ->
                match x with
                | A.Var v when List.mem v.A.name p.P.work ->
                  emit ~line ~id:"LC06" ~path
                    "uniform launch argument reads work variable %s; list \
                     it in the work clause or hoist it"
                    v.A.name
                | _ -> ())
              a)
        l.A.args;
      (match p.P.per_buffer_size with
      | Some (P.Size_var v) when not (Hashtbl.mem (Lazy.force mat) v) ->
        emit ~line ~id:"LC07" ~path
          "perBufferSize names %s, which is never materialized in kernel \
           %s"
          v k.K.kname
      | Some (P.Size_const n) when n < 1 ->
        emit ~line ~id:"LC08" ~path "perBufferSize %d is not positive" n
      | _ -> ());
      (match (p.P.per_buffer_size, p.P.total_size) with
      | Some (P.Size_const items), Some total
        when items > 0
             && items * Int.max 1 (List.length p.P.work) * bytes_per_int
                > total ->
        emit ~line ~id:"LC08" ~path
          "one consolidation buffer (%d items x %d work vars x %d bytes) \
           exceeds totalSize %d"
          items (List.length p.P.work) bytes_per_int total
      | _ -> ());
      (match p.P.threads with
      | Some t when t < 1 || t > cfg.Cfg.max_threads_per_block ->
        emit ~line ~id:"LC09" ~path
          "threads(%d) outside [1, %d] of device %s" t
          cfg.Cfg.max_threads_per_block cfg.Cfg.name
      | _ -> ());
      (match p.P.blocks with
      | Some b when b < 1 || b > cfg.Cfg.max_grid_blocks ->
        emit ~line ~id:"LC10" ~path
          "blocks(%d) outside [1, %d] of device %s" b cfg.Cfg.max_grid_blocks
          cfg.Cfg.name
      | _ -> ());
      (match callee with
      | Some c ->
        if has_return c then
          emit ~line ~id:"LC11" ~path
            "annotated child kernel %s contains return; consolidated \
             items share the fetch loop and cannot exit early"
            c.K.kname;
        if
          solo_thread ~grid:l.A.grid ~block:l.A.block
          && A.has_syncthreads_block c.K.body
        then
          emit ~line ~id:"LC12" ~path
            "solo-thread child kernel %s uses __syncthreads; after \
             consolidation each work item is a single thread of a \
             cooperative block"
            c.K.kname
      | None -> ())
  in
  let rec stmt path (s : A.stmt) =
    match s with
    | A.Launch l -> check_launch path l
    | A.If (_, a, b) ->
      List.iteri (fun i s -> stmt (Expr_util.sub path "then" i) s) a;
      List.iteri (fun i s -> stmt (Expr_util.sub path "else" i) s) b
    | A.While (_, body) ->
      List.iteri (fun i s -> stmt (Expr_util.sub path "while" i) s) body
    | A.For (_, _, _, body) ->
      List.iteri (fun i s -> stmt (Expr_util.sub path "for" i) s) body
    | A.Let _ | A.Store _ | A.Shared_store _ | A.Atomic _ | A.Malloc _
    | A.Free _ | A.Syncthreads | A.Device_sync | A.Grid_barrier | A.Return
      ->
      ()
  in
  List.iteri (fun i s -> stmt (Expr_util.top i) s) k.K.body;
  Diag.sort !diags
