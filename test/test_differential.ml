(* Differential test of the two interpreter back ends.

   The bytecode tier (Bytecode) must be observationally identical to the
   reference AST walker: every app x variant run under both back ends
   has to produce the same Metrics report and, stronger, the same
   per-block Trace segments — issue cycles, weighted active lanes,
   DRAM/L2 counts, allocator charges and segment delimiters.
   Byte-identical traces mean every downstream number (timing model,
   figures, profiler) is provably independent of the back end. *)

module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
module M = Dpc_sim.Metrics
module I = Dpc_sim.Interp
module T = Dpc_sim.Trace
module Device = Dpc_sim.Device
module Pragma = Dpc_kir.Pragma

type capture = {
  report : M.report;
  grids : T.grid_exec array;
  lowered_kernels : int;  (** kernels that lowered to bytecode *)
}

let run_mode ?preset (e : R.entry) v mode : capture =
  let grids = ref [||] in
  let lowered = ref 0 in
  let inspect dev =
    let s = Device.session dev in
    grids := I.grids s;
    Hashtbl.iter
      (fun _ ck -> if Option.is_some ck then incr lowered)
      s.I.ckernels
  in
  let report = Test_apps.run ?preset ~interp:mode ~inspect e v in
  { report; grids = !grids; lowered_kernels = !lowered }

let check_segment ~tier ctx (a : T.segment) (b : T.segment) =
  let fail what ppa ppb =
    Alcotest.failf "%s: %s differs: walker %s vs %s %s" ctx what ppa tier
      ppb
  in
  let chk_int what x y =
    if x <> y then fail what (string_of_int x) (string_of_int y)
  in
  chk_int "issue_cycles" a.T.issue_cycles b.T.issue_cycles;
  if not (Float.equal a.T.weighted_active b.T.weighted_active) then
    fail "weighted_active"
      (Printf.sprintf "%h" a.T.weighted_active)
      (Printf.sprintf "%h" b.T.weighted_active);
  chk_int "dram_transactions" a.T.dram_transactions b.T.dram_transactions;
  chk_int "l2_hits" a.T.l2_hits b.T.l2_hits;
  chk_int "bank_replays" a.T.bank_replays b.T.bank_replays;
  chk_int "mshr_stalls" a.T.mshr_stalls b.T.mshr_stalls;
  chk_int "alloc_calls" a.T.alloc_calls b.T.alloc_calls;
  chk_int "alloc_fallbacks" a.T.alloc_fallbacks b.T.alloc_fallbacks;
  chk_int "alloc_cycles" a.T.alloc_cycles b.T.alloc_cycles;
  match (a.T.ends_with, b.T.ends_with) with
  | T.Seg_done, T.Seg_done
  | T.Seg_sync, T.Seg_sync
  | T.Seg_barrier, T.Seg_barrier ->
    ()
  | T.Seg_launch x, T.Seg_launch y when x = y -> ()
  | _ -> fail "ends_with" "<seg_end>" "<seg_end>"

let check_block ~tier ctx (a : T.block_trace) (b : T.block_trace) =
  if a.T.block_idx <> b.T.block_idx then
    Alcotest.failf "%s: block_idx %d vs %d" ctx a.T.block_idx b.T.block_idx;
  if a.T.warps <> b.T.warps then
    Alcotest.failf "%s: warps %d vs %d" ctx a.T.warps b.T.warps;
  if Array.length a.T.segments <> Array.length b.T.segments then
    Alcotest.failf "%s: segment count %d vs %d" ctx
      (Array.length a.T.segments)
      (Array.length b.T.segments);
  Array.iteri
    (fun i sa ->
      check_segment ~tier
        (Printf.sprintf "%s seg %d" ctx i)
        sa b.T.segments.(i))
    a.T.segments

let check_grid ~tier ctx (a : T.grid_exec) (b : T.grid_exec) =
  if
    a.T.gid <> b.T.gid || a.T.kernel <> b.T.kernel
    || a.T.grid_dim <> b.T.grid_dim
    || a.T.block_dim <> b.T.block_dim
    || a.T.depth <> b.T.depth || a.T.parent <> b.T.parent
  then
    Alcotest.failf "%s: grid header differs (%s g%d vs %s g%d)" ctx
      a.T.kernel a.T.gid b.T.kernel b.T.gid;
  if Array.length a.T.blocks <> Array.length b.T.blocks then
    Alcotest.failf "%s: block count %d vs %d" ctx (Array.length a.T.blocks)
      (Array.length b.T.blocks);
  Array.iteri
    (fun i ba ->
      check_block ~tier
        (Printf.sprintf "%s block %d" ctx i)
        ba b.T.blocks.(i))
    a.T.blocks

let report_str (r : M.report) =
  String.concat "; "
    (List.map (fun (k, v) -> k ^ "=" ^ v) (M.to_rows r))

let check_tier ~tier name (ref_ : capture) (cmp : capture) =
  (* The fast path must actually engage, or the test is vacuous. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: at least one kernel lowered by %s tier" name tier)
    true (cmp.lowered_kernels > 0);
  if compare ref_.report cmp.report <> 0 then
    Alcotest.failf "%s: Metrics.report differs\nwalker: %s\n%s: %s" name
      (report_str ref_.report) tier (report_str cmp.report);
  if Array.length ref_.grids <> Array.length cmp.grids then
    Alcotest.failf "%s: grid count %d vs %s %d" name
      (Array.length ref_.grids) tier (Array.length cmp.grids);
  Array.iteri
    (fun i ga ->
      check_grid ~tier
        (Printf.sprintf "%s grid %d" name i)
        ga cmp.grids.(i))
    ref_.grids

let diff_app_variant ?preset (e : R.entry) v () =
  let name = Printf.sprintf "%s/%s" e.R.name (H.variant_to_string v) in
  let ref_ = run_mode ?preset e v I.Reference in
  check_tier ~tier:"bytecode" name ref_ (run_mode ?preset e v I.Bytecode)

let variants =
  [ H.Basic; H.Cons Pragma.Warp; H.Cons Pragma.Block; H.Cons Pragma.Grid ]

(* Deep presets exercise the gated Memmodel features (bank-conflict
   replay, MSHR stalls, dual-issue); byte-identity must hold under them
   too, including the two new segment counters.  Basic-dp plus one
   consolidated variant per app keeps the added wall-clock modest while
   still covering the transform's shared-memory inlining. *)
let deep_presets =
  [ ("k20c-deep", Dpc_gpu.Config.k20c_deep);
    ("milo832", Dpc_gpu.Config.milo832) ]

let deep_variants = [ H.Basic; H.Cons Pragma.Block ]

(* On the features-off default preset the new counters must stay exactly
   zero everywhere — the guarantee that default exports remain
   byte-identical to releases before the deep model existed. *)
let test_k20c_counters_zero () =
  List.iter
    (fun (e : R.entry) ->
      let r = Test_apps.run e H.Basic in
      Alcotest.(check int)
        (Printf.sprintf "%s: bank replays on k20c" e.R.name)
        0 r.M.bank_conflict_replays;
      Alcotest.(check int)
        (Printf.sprintf "%s: mshr stalls on k20c" e.R.name)
        0 r.M.mshr_stalls)
    R.all

(* --- natively lowered statements on small kernels -------------------------

   Every statement kind lowers to native bytecode ops: atomics, mallocs,
   numeric boxed shared reads, launches, device syncs, frees and the
   block-uniform control flow around barriers; a kernel with any boxed
   slot takes the walker.  Each small kernel below runs under both
   tiers; the outcome (or the exact exception text), the Metrics report,
   every Trace segment and the final contents of every device buffer
   must agree byte for byte, and the kernel must really have lowered —
   or, for a construct with no native form, really have taken the
   walker. *)

module B = Dpc_kir.Build
module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module V = Dpc_kir.Value
module Mem = Dpc_gpu.Memory
module Bc = Dpc_sim.Bytecode

type small = {
  outcome : (unit, string) result;
  sreport : M.report option;
  sgrids : T.grid_exec array;
  memory : string;  (** every device buffer, floats in %h *)
  lowered : bool;  (** every launched kernel ran on the bytecode tier *)
}

(* Contents through the host read-back, so a buffer the tiers left without
   storage compares equal to one holding zeros. *)
let dump_memory dev =
  let mem = Device.memory dev in
  String.concat "\n"
    (List.init (Mem.buf_count mem) (fun id ->
         let b = Mem.get_buf mem id in
         let elems =
           match b.Mem.data with
           | Mem.I _ -> Array.map string_of_int (Mem.int_contents b)
           | Mem.F _ -> Array.map (Printf.sprintf "%h") (Mem.float_contents b)
         in
         b.Mem.name ^ ":" ^ String.concat "," (Array.to_list elems)))

let fresh (k : K.t) =
  B.kernel ~name:k.K.kname ~params:k.K.params ~shared:k.K.shared
    (A.copy_block k.K.body)

(* [setup] allocates the inputs and returns the launch arguments; [k] is
   the entry kernel, [callees] the kernels it launches. *)
let run_small ?(alloc_kind = Dpc_alloc.Allocator.Default) ?(callees = [])
    ~mode (k : K.t) ~grid ~block setup =
  let prog = K.Program.create () in
  List.iter (fun k -> K.Program.add prog (fresh k)) (k :: callees);
  let dev = Device.create ~mode ~alloc_kind prog in
  let args = setup dev in
  let outcome =
    match Device.launch dev k.K.kname ~grid ~block args with
    | () -> Ok ()
    | exception e -> Error (Printexc.to_string e)
  in
  let s = Device.session dev in
  {
    outcome;
    sreport = (if outcome = Ok () then Some (Device.report dev) else None);
    sgrids = I.grids s;
    memory = dump_memory dev;
    lowered =
      Hashtbl.length s.I.ckernels > 0
      && Hashtbl.fold (fun _ ck ok -> ok && Option.is_some ck) s.I.ckernels
           true;
  }

let diff_small ?alloc_kind ?callees ?(lowers = true) ?(raises = false) name
    k ~grid ~block setup =
  Alcotest.(check bool)
    (name ^ ": lowers to bytecode")
    lowers
    (let k = fresh k in
     K.finalize k;
     Option.is_some (Bc.streams_of_kernel k));
  let walker =
    run_small ?alloc_kind ?callees ~mode:I.Reference k ~grid ~block setup
  in
  let r =
    run_small ?alloc_kind ?callees ~mode:I.Bytecode k ~grid ~block setup
  in
  let ctx = name ^ " [bytecode]" in
  Alcotest.(check bool) (ctx ^ ": ran on the bytecode tier") lowers r.lowered;
  (match (walker.outcome, r.outcome) with
  | Ok (), Ok () -> ()
  | Error a, Error b -> Alcotest.(check string) (ctx ^ ": raise") a b
  | Ok (), Error e -> Alcotest.failf "%s: raised %s, walker did not" ctx e
  | Error e, Ok () -> Alcotest.failf "%s: walker raised %s" ctx e);
  (match walker.outcome with
  | Error e when not raises -> Alcotest.failf "%s: raised %s" ctx e
  | Ok () when raises -> Alcotest.failf "%s: did not raise" ctx
  | _ -> ());
  (match (walker.sreport, r.sreport) with
  | Some a, Some b when compare a b <> 0 ->
    Alcotest.failf "%s: Metrics.report differs\nwalker: %s\nbytecode: %s" ctx
      (report_str a) (report_str b)
  | _ -> ());
  Alcotest.(check int) (ctx ^ ": grid count")
    (Array.length walker.sgrids) (Array.length r.sgrids);
  Array.iteri
    (fun i g ->
      check_grid ~tier:"bytecode" (Printf.sprintf "%s grid %d" ctx i) g
        r.sgrids.(i))
    walker.sgrids;
  Alcotest.(check string) (ctx ^ ": device memory") walker.memory r.memory;
  walker.outcome

let buf_args a dev =
  [ V.Vbuf (a dev).Mem.id;
    V.Vbuf (Device.alloc_int dev ~name:"out" 64).Mem.id;
    V.Vbuf (Device.alloc_float dev ~name:"outf" 64).Mem.id ]

let int_args ints = buf_args (fun dev -> Device.of_int_array dev ~name:"a" ints)

let float_args floats =
  buf_args (fun dev -> Device.of_float_array dev ~name:"a" floats)

let atomic_ops =
  [ ("add", `Add); ("min", `Min); ("max", `Max); ("exch", `Exch);
    ("cas", `Cas) ]

(* One atomic under a divergent mask (every third lane sits out), five
   lanes contending per element, a partial second warp.  [old] is none,
   an unboxed slot, or a slot made boxed by a dead float/int assignment
   (the boxed slot sends the kernel to the walker; that variant records
   nothing). *)
let atomic_kernel ~float_buf ~int_operand ~op ~old =
  let open B in
  let operand =
    if int_operand then (tid *: i 7) -: i 20
    else (to_float tid *: f 0.5) -: f 3.0
  in
  let old_name = match old with `None -> None | _ -> Some "old" in
  let idx = tid %: i 5 in
  let stmt =
    match op with
    | `Add -> atomic_add ?old:old_name (v "a") idx operand
    | `Min -> atomic_min ?old:old_name (v "a") idx operand
    | `Max -> atomic_max ?old:old_name (v "a") idx operand
    | `Exch -> atomic_exch ?old:old_name (v "a") idx operand
    | `Cas ->
      let compare =
        if float_buf then to_float (tid %: i 4) else tid %: i 4
      in
      atomic_cas ?old:old_name (v "a") idx ~compare operand
  in
  let make_boxed =
    (* a never-taken assignment of the other kind forces a boxed slot *)
    match old with
    | `Boxed ->
      [ if_then (tid <: i 0)
          [ set "old" (if float_buf then i 1 else f 1.0) ] ]
    | _ -> []
  in
  let record =
    match old with
    | `None | `Boxed -> []
    | `Unboxed ->
      [ if float_buf then store (v "outf") tid (v "old")
        else store (v "out") tid (v "old") ]
  in
  kernel ~name:"atom"
    ~params:[ (if float_buf then pp "a" else pi "a"); pi "out"; pp "outf" ]
    (make_boxed
    @ [ if_then ((tid %: i 3) <>: i 1) (stmt :: record) ])

(* [a] holds host values, or is a zero-filled buffer nothing has written
   ("untouched"): there the first write-back gives it storage. *)
let atomic_cases () =
  List.iter
    (fun (oname, op) ->
      List.iter
        (fun (bname, float_buf, int_operand) ->
          (* int buffers take int operands only on the native path *)
          List.iter
            (fun (dname, old, untouched) ->
              let name =
                Printf.sprintf "atomic %s %s %s%s" oname bname dname
                  (if untouched then " untouched" else "")
              in
              let k = atomic_kernel ~float_buf ~int_operand ~op ~old in
              let setup =
                match (float_buf, untouched) with
                | false, false -> int_args [| 0; 1; 2; 3; 4 |]
                | true, false -> float_args [| 0.5; 1.0; 2.0; 3.0; 4.0 |]
                | false, true ->
                  buf_args (fun dev -> Device.alloc_int dev ~name:"a" 5)
                | true, true ->
                  buf_args (fun dev -> Device.alloc_float dev ~name:"a" 5)
              in
              ignore
                (diff_small ~lowers:(old <> `Boxed) name k ~grid:2 ~block:48
                   setup))
            [ ("no-old", `None, false); ("old", `Unboxed, false);
              ("boxed-old", `Boxed, false); ("old", `Unboxed, true) ])
        [ ("int", false, true); ("float", true, false);
          ("float/int-operand", true, true) ])
    atomic_ops

(* An out-of-range atomic index raises from the same lane with the same
   message on both tiers. *)
let atomic_oob () =
  List.iter
    (fun float_buf ->
      let open B in
      let k =
        kernel ~name:"atom_oob"
          ~params:
            [ (if float_buf then pp "a" else pi "a"); pi "out"; pp "outf" ]
          [ if_then (tid >: i 1)
              [ atomic_add ~old:"o" (v "a") (tid +: i 2)
                  (if float_buf then f 1.0 else i 1) ] ]
      in
      let setup =
        if float_buf then float_args (Array.make 5 0.0)
        else int_args (Array.make 5 0)
      in
      let name = if float_buf then "atomic oob float" else "atomic oob int" in
      let outcome = diff_small ~raises:true name k ~grid:1 ~block:32 setup in
      Alcotest.(check bool) (name ^ ": raised Out_of_bounds") true
        (match outcome with
        | Error m ->
          String.starts_with ~prefix:"Dpc_gpu.Memory.Out_of_bounds" m
        | Ok () -> false))
    [ false; true ]

(* Boxed slots: int/float/buffer values boxed by a let, under divergence,
   and never read back.  A boxed slot has no native form, so the kernel
   takes the walker. *)
let boxed_let () =
  let open B in
  let k =
    kernel ~name:"boxed" ~params:[ pi "a"; pi "out"; pp "outf" ]
      [
        if_ ((tid %: i 2) ==: i 0)
          [ set "x" (tid *: i 3) ]
          [ set "x" (to_float tid *: f 0.25) ];
        if_ (tid <: i 10) [ set "y" (v "a") ] [ set "y" (i 7) ];
        store (v "out") tid (tid +: i 100);
      ]
  in
  ignore
    (diff_small ~lowers:false "boxed let" k ~grid:1 ~block:40
       (int_args (Array.make 5 0)))

(* Reading a boxed slot back (a value that is an int in some lanes and a
   float in others, a buffer-or-int handle) has no native form: the
   whole kernel takes the walker, with an identical outcome. *)
let boxed_operand_walker () =
  let open B in
  let k =
    kernel ~name:"boxed_read" ~params:[ pi "a"; pi "out"; pp "outf" ]
      [
        if_ ((tid %: i 2) ==: i 0)
          [ set "x" (tid *: i 3) ]
          [ set "x" (to_float tid *: f 0.25) ];
        if_ (tid <: i 10) [ set "y" (v "a") ] [ set "y" (v "out") ];
        store (v "outf") tid (v "x");
        store (v "y") (tid %: i 5) (tid +: i 100);
      ]
  in
  ignore
    (diff_small ~lowers:false "boxed operand" k ~grid:1 ~block:40
       (int_args (Array.make 5 0)))

(* An int parameter made boxed by a never-taken float assignment, and
   never read: the boxed parameter slot sends the kernel to the walker,
   which binds the argument like any other. *)
let boxed_param_walker () =
  let open B in
  let k =
    kernel ~name:"boxed_param"
      ~params:[ pi "a"; pi "out"; pp "outf"; p "n" ]
      [ if_then (tid <: i 0) [ set "n" (f 1.5) ];
        store (v "out") tid (tid +: i 100) ]
  in
  ignore
    (diff_small ~lowers:false "boxed parameter" k ~grid:1 ~block:40
       (fun dev -> int_args (Array.make 5 0) dev @ [ V.Vint 7 ]))

let allocators =
  [ ("default", Dpc_alloc.Allocator.Default);
    ("pool", Dpc_alloc.Allocator.Pool);
    ("halloc", Dpc_alloc.Allocator.Halloc) ]

(* Mallocs at every scope and allocator: the count comes from the lowest
   active lane, per-block/per-grid sites allocate once and then hit the
   cache, and the handle lands in an int slot, or in a (write-only)
   boxed one that sends the kernel to the walker. *)
let malloc_scopes () =
  List.iter
    (fun (sname, scope) ->
      List.iter
        (fun boxed ->
          List.iter
            (fun (aname, alloc_kind) ->
              let open B in
              let body =
                if boxed then
                  [ malloc ~scope "buf" (i 8 +: tid);
                    store (v "out") tid (i 1) ]
                else
                  [ malloc ~scope "buf" (i 8 +: tid);
                    atomic_add ~old:"slot" (v "buf") (i 0) (i 1);
                    store (v "out") tid (v "slot") ]
              in
              let k =
                kernel ~name:"mal" ~params:[ pi "a"; pi "out"; pp "outf" ]
                  ((if boxed then
                      [ if_then (tid <: i 0) [ set "buf" (i 0) ] ]
                    else [])
                  @ [ if_then ((tid %: i 4) <>: i 3) body ])
              in
              ignore
                (diff_small ~alloc_kind ~lowers:(not boxed)
                   (Printf.sprintf "malloc %s %s%s" sname aname
                      (if boxed then " boxed" else ""))
                   k ~grid:3 ~block:48 (int_args [| 0 |])))
            allocators)
        [ false; true ])
    [ ("warp", A.Per_warp); ("block", A.Per_block); ("grid", A.Per_grid) ]

(* Reads of a float shared array (boxed, but provably numeric) feeding
   float arithmetic and comparisons, including never-written [Vint 0]
   entries, beside stores of handles into another shared array. *)
let numeric_shared () =
  let open B in
  let k =
    kernel ~name:"shn" ~params:[ pi "a"; pi "out"; pp "outf" ]
      ~shared:[ ("sh", 64); ("hs", 64) ]
      [
        if_then (tid <: i 40) [ shared_set "sh" tid (to_float tid *: f 0.5) ];
        shared_set "hs" tid (v "a");
        sync;
        set "acc" (f 1.0 +: shared "sh" ((tid +: i 20) %: i 64));
        set "lt" (shared "sh" tid <: f 3.0);
        set "gt" (tid >: shared "sh" (i 63 -: tid));
        store (v "outf") tid (v "acc");
        store (v "out") tid ((v "lt" *: i 2) +: v "gt");
      ]
  in
  ignore
    (diff_small "numeric shared read" k ~grid:2 ~block:64
       (int_args (Array.make 5 0)))

(* Device-side launches under a divergent mask (every third lane sits
   out) from a partial second warp: per-lane grid and block dimensions
   (the block a float coerced per lane), int, float and buffer
   arguments.  The children run at block end in breadth order. *)
let launch_child =
  let open B in
  kernel ~name:"child" ~params:[ p "n"; pf "x"; pi "out"; pp "outf" ]
    [
      if_then (tid ==: i 0) [ atomic_add (v "out") (v "n" %: i 64) (i 1) ];
      store (v "outf") ((v "n" +: tid) %: i 64) (v "x" +: to_float bid);
    ]

let native_launch () =
  let open B in
  let k =
    kernel ~name:"launcher" ~params:[ pi "a"; pi "out"; pp "outf" ]
      [
        if_then
          ((tid %: i 3) <>: i 1)
          [ launch "child"
              ~grid:((tid %: i 2) +: i 1)
              ~block:(to_float ((tid %: i 5) +: i 30))
              [ tid +: (bid *: i 40); to_float tid *: f 0.5; v "out";
                v "outf" ] ];
        store (v "a") (i 0) (tid +: i 1);
      ]
  in
  ignore
    (diff_small ~callees:[ launch_child ] "native launch" k ~grid:2 ~block:40
       (int_args [| 0 |]))

(* [cudaDeviceSynchronize] drains the block's pending launches to
   completion (a child that itself launches and syncs is drained in
   deep mode), then the parent reads what its children wrote. *)
let native_devsync () =
  let open B in
  let grandchild =
    kernel ~name:"gchild" ~params:[ pi "out"; p "b" ]
      [ atomic_add (v "out") (i 40 +: v "b") (tid +: i 1) ]
  in
  let child =
    kernel ~name:"dchild" ~params:[ pi "out"; p "b" ]
      [
        atomic_add (v "out") (v "b") (i 1);
        if_then ((tid ==: i 0) &&: (bid ==: i 1))
          [ launch "gchild" ~grid:(i 1) ~block:(i 8) [ v "out"; v "b" ] ];
        device_sync;
        store (v "out") (i 20 +: v "b") (load (v "out") (i 40 +: v "b"));
      ]
  in
  let k =
    kernel ~name:"syncer" ~params:[ pi "a"; pi "out"; pp "outf" ]
      [
        if_then (tid ==: i 0)
          [ launch "dchild" ~grid:(i 2) ~block:(i 36) [ v "out"; bid ] ];
        if_then (tid ==: i 33)
          [ launch "dchild" ~grid:(i 1) ~block:(i 32) [ v "out"; bid +: i 4 ] ];
        device_sync;
        store (v "a") (bid *: i 40 +: tid) (load (v "out") (i 20 +: bid));
      ]
  in
  ignore
    (diff_small ~callees:[ child; grandchild ] "native devsync deep drain" k
       ~grid:3 ~block:40
       (int_args (Array.make 120 0)))

(* [free] of a per-warp buffer under a divergent mask (the lowest active
   lane's handle), under each allocator. *)
let native_free () =
  List.iter
    (fun (aname, alloc_kind) ->
      let open B in
      let k =
        kernel ~name:"freer" ~params:[ pi "a"; pi "out"; pp "outf" ]
          [
            if_then
              ((tid %: i 4) <>: i 3)
              [ malloc ~scope:A.Per_warp "buf" (i 32 +: warp);
                store (v "buf") lane tid;
                store (v "out") tid (load (v "buf") (lane /: i 2));
                free (v "buf") ];
          ]
      in
      ignore
        (diff_small ~alloc_kind ("native free " ^ aname) k ~grid:3 ~block:48
           (int_args [| 0 |])))
    allocators

(* Block-uniform [if]/[while]/[for] around barriers, with int, float and
   loaded (SpMV-style [it < cnt[0]]) conditions and lanes that returned
   early; then conditions that disagree across the block (int, float)
   or cannot be tested (a buffer), which must fail with the walker's
   exact message. *)
let uniform_control () =
  let open B in
  let k =
    kernel ~name:"uni" ~params:[ pi "a"; pi "out"; pp "outf" ]
      ~shared:[ ("sh", 64) ]
      [
        if_then (tid >: i 60) [ return ];
        set "it" (i 0);
        while_
          (v "it" <: load (v "a") (i 0))
          [ shared_set "sh" tid (v "it" +: tid);
            sync;
            store (v "out") tid (shared "sh" ((tid +: i 1) %: i 60));
            set "it" (v "it" +: i 1) ];
        for_ "j" ~from:(load (v "a") (i 1)) ~below:(bid +: i 3)
          [ sync; atomic_add (v "out") (v "j") (i 1) ];
        if_ (to_float bid *: f 0.5)
          [ sync; store (v "outf") tid (f 1.5) ]
          [ sync; store (v "outf") tid (f 2.5) ];
        if_ (bid ==: i 1) [ grid_barrier ] [];
        store (v "out") (i 63) (tid +: i 1);
      ]
  in
  ignore
    (diff_small "uniform control" k ~grid:3 ~block:64 (int_args [| 3; 1 |]));
  List.iter
    (fun (name, cond) ->
      let k =
        kernel ~name:"nonuni" ~params:[ pi "a"; pi "out"; pp "outf" ]
          [ if_ cond [ sync ] [] ]
      in
      ignore
        (diff_small ~raises:true name k ~grid:1 ~block:40
           (int_args [| 3; 1 |])))
    [ ("non-uniform int condition", tid <: i 5);
      ("non-uniform float condition", to_float tid *: f 0.5);
      ("buffer condition", v "a") ]

(* --- register-plane reuse ---------------------------------------------------

   A lowered block takes its warps' register rows from its kernel's free
   list and returns them at block end.  Each kernel below has every lane
   read an int slot [x] that only every third lane writes, a different
   third in each block (a read the walker answers with its zero fill),
   so a reused row that kept an earlier block's values would change what
   the other lanes store.  A float slot [y], written on every lane,
   rides along.  (A float slot read where it may be unwritten is boxed
   by the typing, and such a kernel does not lower.) *)

let stale_reads ~out ~outf ~at ~base =
  let open B in
  [
    if_then
      (((lane +: bid +: base) %: i 3) ==: i 0)
      [ set "x" (tid +: base +: i 1) ];
    set "y" (to_float (v "x" +: tid) *: f 0.25);
    store (v out) at (v "x" *: i 2);
    store (v outf) at (v "y");
  ]

(* A kernel that launches itself and syncs: each child grid runs inside
   its parent's block (a deep drain), so a same-kernel block executes
   while its parent's warps are still live, and the parent then reads
   its own [x] and [y] back after the sync. *)
let plane_recursive () =
  let open B in
  let slot = (v "d" *: i 64) +: (bid *: i 32) +: (tid %: i 32) in
  let k =
    kernel ~name:"recur" ~params:[ pi "out"; pp "outf"; p "d" ]
      (stale_reads ~out:"out" ~outf:"outf" ~at:slot ~base:(v "d" *: i 7)
      @ [
          if_then
            ((tid ==: i 0) &&: (v "d" <: i 2))
            [ launch "recur" ~grid:(i 2) ~block:(i 33 +: (v "d" *: i 20))
                [ v "out"; v "outf"; v "d" +: i 1 ] ];
          device_sync;
          atomic_add (v "out") (i 192 +: (tid %: i 32)) (v "x");
          atomic_add (v "outf") (i 192 +: (tid %: i 32)) (v "y");
        ])
  in
  ignore
    (diff_small "plane reuse: nested same-kernel block" k ~grid:2 ~block:40
       (fun dev ->
         [ V.Vbuf (Device.alloc_int dev ~name:"out" 256).Mem.id;
           V.Vbuf (Device.alloc_float dev ~name:"outf" 256).Mem.id;
           V.Vint 0 ]))

(* Several launches of one kernel on one device, in order; [setup]
   allocates the buffers and returns the launches as (grid, block,
   args).  Every launch's outcome (or exception text) is recorded. *)
let run_seq ~mode (k : K.t) setup =
  let prog = K.Program.create () in
  K.Program.add prog (fresh k);
  let dev = Device.create ~mode prog in
  let outcomes =
    List.map
      (fun (grid, block, args) ->
        match Device.launch dev k.K.kname ~grid ~block args with
        | () -> "ok"
        | exception e -> Printexc.to_string e)
      (setup dev)
  in
  (outcomes, dev)

(* Run a launch sequence under both tiers on one device each; outcomes,
   traces, device memory and (when nothing raised) the report must
   agree.  Returns the bytecode device's memory dump. *)
let diff_seq name k setup =
  let wout, wdev = run_seq ~mode:I.Reference k setup in
  let bout, bdev = run_seq ~mode:I.Bytecode k setup in
  let ctx = name ^ " [bytecode]" in
  let bs = Device.session bdev in
  Alcotest.(check bool) (ctx ^ ": ran on the bytecode tier") true
    (Hashtbl.fold (fun _ ck ok -> ok && Option.is_some ck) bs.I.ckernels
       (Hashtbl.length bs.I.ckernels > 0));
  Alcotest.(check (list string)) (ctx ^ ": outcomes") wout bout;
  let wg = I.grids (Device.session wdev) and bg = I.grids bs in
  Alcotest.(check int) (ctx ^ ": grid count") (Array.length wg)
    (Array.length bg);
  Array.iteri
    (fun i g ->
      check_grid ~tier:"bytecode" (Printf.sprintf "%s grid %d" ctx i) g bg.(i))
    wg;
  if List.for_all (String.equal "ok") wout then
    Alcotest.(check string) (ctx ^ ": report")
      (report_str (Device.report wdev))
      (report_str (Device.report bdev));
  let mem = dump_memory bdev in
  Alcotest.(check string) (ctx ^ ": device memory") (dump_memory wdev) mem;
  mem

(* Writes [x] and [y] at [base + global thread id]; with [bad = 1],
   thread 5 of block 1 stores out of bounds, after block 0 has finished
   and given its warps back. *)
let plane_kernel =
  let open B in
  let at = v "base" +: (bid *: bdim) +: tid in
  kernel ~name:"planes" ~params:[ pi "out"; pp "outf"; p "base"; p "bad" ]
    ([ if_then
         ((v "bad" ==: i 1) &&: (bid ==: i 1) &&: (tid ==: i 5))
         [ store (v "out") (i (-1)) (i 0) ] ]
    @ stale_reads ~out:"out" ~outf:"outf" ~at ~base:(v "base"))

let plane_block_dims () =
  ignore
    (diff_seq "plane reuse: block sizes" plane_kernel (fun dev ->
         let out = V.Vbuf (Device.alloc_int dev ~name:"out" 512).Mem.id in
         let outf =
           V.Vbuf (Device.alloc_float dev ~name:"outf" 512).Mem.id
         in
         List.map
           (fun (base, block) ->
             (2, block, [ out; outf; V.Vint base; V.Vint 0 ]))
           [ (0, 40); (80, 100); (280, 20); (320, 64); (448, 31) ]))

let line_of prefix dump =
  List.find
    (fun l -> String.starts_with ~prefix l)
    (String.split_on_char '\n' dump)

let plane_after_raise () =
  let setup ~with_bad dev =
    let buf name = V.Vbuf (Device.alloc_int dev ~name 128).Mem.id in
    let fbuf name = V.Vbuf (Device.alloc_float dev ~name 128).Mem.id in
    let out1 = buf "out1" and outf1 = fbuf "outf1" in
    let out2 = buf "out2" and outf2 = fbuf "outf2" in
    (if with_bad then [ (3, 40, [ out1; outf1; V.Vint 0; V.Vint 1 ]) ]
     else [])
    @ [ (3, 40, [ out2; outf2; V.Vint 0; V.Vint 0 ]) ]
  in
  let after =
    diff_seq "plane reuse: launch after a raise" plane_kernel
      (setup ~with_bad:true)
  in
  let clean_out, clean =
    run_seq ~mode:I.Bytecode plane_kernel (setup ~with_bad:false)
  in
  Alcotest.(check (list string)) "fresh device: good launch" [ "ok" ]
    clean_out;
  let clean_mem = dump_memory clean in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " after a raise = on a fresh device")
        (line_of (name ^ ":") clean_mem)
        (line_of (name ^ ":") after))
    [ "out2"; "outf2" ]

(* Every app kernel, under every variant and preset, lowers to bytecode:
   none of them falls back to the walker. *)
let apps_lower () =
  List.iter
    (fun (pname, cfg) ->
      List.iter
        (fun (e : R.entry) ->
          List.iter
            (fun v ->
              let _, prep = H.build e.R.family ~cfg v in
              List.iter
                (fun (k : K.t) ->
                  K.finalize k;
                  if Bc.streams_of_kernel k = None then
                    Alcotest.failf "%s/%s/%s [%s]: does not lower" e.R.name
                      (H.variant_to_string v) k.K.kname pname)
                (K.Program.kernels prep.H.p_prog))
            H.all_variants)
        R.all)
    (("k20c", Dpc_gpu.Config.k20c) :: deep_presets)

let suite =
  List.concat_map
    (fun (e : R.entry) ->
      List.map
        (fun v ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" e.R.name (H.variant_to_string v))
            `Slow (diff_app_variant e v))
        variants)
    R.all
  @ List.concat_map
      (fun (pname, _) ->
        List.concat_map
          (fun (e : R.entry) ->
            List.map
              (fun v ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s [%s]" e.R.name
                     (H.variant_to_string v) pname)
                  `Slow
                  (diff_app_variant ~preset:pname e v))
              deep_variants)
          R.all)
      deep_presets
  @ [
      Alcotest.test_case "k20c deep counters stay zero" `Quick
        test_k20c_counters_zero;
      Alcotest.test_case "native atomics all ops" `Quick atomic_cases;
      Alcotest.test_case "native atomic out of bounds" `Quick atomic_oob;
      Alcotest.test_case "boxed let takes the walker" `Quick boxed_let;
      Alcotest.test_case "boxed operand takes the walker" `Quick
        boxed_operand_walker;
      Alcotest.test_case "boxed parameter takes the walker" `Quick
        boxed_param_walker;
      Alcotest.test_case "native malloc scopes" `Quick malloc_scopes;
      Alcotest.test_case "native numeric shared read" `Quick numeric_shared;
      Alcotest.test_case "native launch" `Quick native_launch;
      Alcotest.test_case "native devsync deep drain" `Quick native_devsync;
      Alcotest.test_case "native free" `Quick native_free;
      Alcotest.test_case "uniform control and errors" `Quick uniform_control;
      Alcotest.test_case "apps lower to bytecode" `Quick apps_lower;
      Alcotest.test_case "plane reuse nested same kernel" `Quick
        plane_recursive;
      Alcotest.test_case "plane reuse block sizes" `Quick plane_block_dims;
      Alcotest.test_case "plane reuse after a raise" `Quick plane_after_raise;
    ]
