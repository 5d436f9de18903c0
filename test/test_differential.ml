(* Differential test of the three interpreter back ends.

   The compiled closure fast path (Compile) and the bytecode tier
   (Bytecode) must both be observationally identical to the reference
   AST walker: every app x variant run under all three back ends has to
   produce the same Metrics report and, stronger, the same per-block
   Trace segments — issue cycles, weighted active lanes, DRAM/L2
   counts, allocator charges and segment delimiters.  Byte-identical
   traces mean every downstream number (timing model, figures,
   profiler) is provably independent of the back end. *)

module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
module M = Dpc_sim.Metrics
module I = Dpc_sim.Interp
module T = Dpc_sim.Trace
module Device = Dpc_sim.Device
module Pragma = Dpc_kir.Pragma

(* Small scales per app (same table as test_apps). *)
let small_scale = function
  | "SSSP" -> 700
  | "SpMV" -> 900
  | "PageRank" -> 600
  | "GC" -> 8 (* 2^8 nodes *)
  | "BFS-Rec" -> 8
  | "TH" | "TD" -> 16 (* shrink divisor *)
  | other -> invalid_arg other

type capture = {
  report : M.report;
  grids : T.grid_exec array;
  compiled_kernels : int;  (** kernels that lowered to closures *)
}

let run_mode ?cfg (e : R.entry) v mode : capture =
  let saved = I.default_mode () in
  I.set_default_mode mode;
  Fun.protect
    ~finally:(fun () -> I.set_default_mode saved)
    (fun () ->
      let grids = ref [||] in
      let compiled = ref 0 in
      let report =
        e.R.run ?cfg ~scale:(small_scale e.R.name)
          ~inspect:(fun dev ->
            let s = Device.session dev in
            grids := I.grids s;
            Hashtbl.iter
              (fun _ ck -> if Option.is_some ck then incr compiled)
              s.I.ckernels)
          v
      in
      { report; grids = !grids; compiled_kernels = !compiled })

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
    true (cmp.compiled_kernels > 0);
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

let diff_app_variant ?cfg (e : R.entry) v () =
  let name = Printf.sprintf "%s/%s" e.R.name (H.variant_to_string v) in
  let ref_ = run_mode ?cfg e v I.Reference in
  check_tier ~tier:"compiled" name ref_ (run_mode ?cfg e v I.Compiled);
  check_tier ~tier:"bytecode" name ref_ (run_mode ?cfg e v I.Bytecode)

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
      let r = e.R.run ~scale:(small_scale e.R.name) H.Basic in
      Alcotest.(check int)
        (Printf.sprintf "%s: bank replays on k20c" e.R.name)
        0 r.M.bank_conflict_replays;
      Alcotest.(check int)
        (Printf.sprintf "%s: mshr stalls on k20c" e.R.name)
        0 r.M.mshr_stalls)
    R.all

(* --- natively lowered statements on small kernels -------------------------

   The bytecode tier lowers atomics, boxed lets, mallocs and numeric
   boxed shared reads to native ops instead of closure CALLs.  Each small
   kernel below runs under all three tiers; the outcome (or the exact
   exception text), the Metrics report, every Trace segment and the
   final contents of every device buffer must agree byte for byte, and
   the statements under test must really have lowered natively. *)

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
  lowered : bool;  (** the entry kernel ran on the tier's lowering *)
}

let dump_memory dev =
  let mem = Device.memory dev in
  String.concat "\n"
    (List.init (Mem.buf_count mem) (fun id ->
         let b = Mem.get_buf mem id in
         match b.Mem.data with
         | Mem.I a ->
           b.Mem.name ^ ":"
           ^ String.concat "," (Array.to_list (Array.map string_of_int a))
         | Mem.F a ->
           b.Mem.name ^ ":"
           ^ String.concat ","
               (Array.to_list (Array.map (Printf.sprintf "%h") a))))

(* [setup] allocates the inputs and returns the launch arguments. *)
let run_small ?(alloc_kind = Dpc_alloc.Allocator.Default) ~mode
    (k : K.t) ~grid ~block setup =
  let prog = K.Program.create () in
  K.Program.add prog (B.kernel ~name:k.K.kname ~params:k.K.params
                        ~shared:k.K.shared (A.copy_block k.K.body));
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
      (match Hashtbl.find_opt s.I.ckernels k.K.kname with
      | Some (Some _) -> true
      | _ -> false);
  }

(* Statement kinds that must never reach a closure CALL in bytecode. *)
let native_tags = [ "atomic"; "let-boxed"; "malloc" ]

let native_calls (k : K.t) =
  let k = B.kernel ~name:k.K.kname ~params:k.K.params ~shared:k.K.shared
      (A.copy_block k.K.body) in
  K.finalize k;
  match Bc.streams_of_kernel k with
  | None -> [ "<kernel does not lower>" ]
  | Some streams ->
    List.concat_map
      (fun (st : Bc.stream) ->
        List.filter (fun t -> List.mem t native_tags)
          (Array.to_list st.Bc.s_calls))
      streams

let diff_small ?alloc_kind ?(native = true) name k ~grid ~block setup =
  if native then
    Alcotest.(check (list string))
      (name ^ ": no CALL for an atomic, boxed let or malloc") []
      (native_calls k);
  let walker = run_small ?alloc_kind ~mode:I.Reference k ~grid ~block setup in
  List.iter
    (fun (tier, mode) ->
      let r = run_small ?alloc_kind ~mode k ~grid ~block setup in
      let ctx = name ^ " [" ^ tier ^ "]" in
      Alcotest.(check bool) (ctx ^ ": kernel lowered") true r.lowered;
      (match (walker.outcome, r.outcome) with
      | Ok (), Ok () -> ()
      | Error a, Error b -> Alcotest.(check string) (ctx ^ ": raise") a b
      | Ok (), Error e -> Alcotest.failf "%s: raised %s, walker did not" ctx e
      | Error e, Ok () -> Alcotest.failf "%s: walker raised %s" ctx e);
      (match (walker.sreport, r.sreport) with
      | Some a, Some b when compare a b <> 0 ->
        Alcotest.failf "%s: Metrics.report differs\nwalker: %s\n%s: %s" ctx
          (report_str a) tier (report_str b)
      | _ -> ());
      Alcotest.(check int) (ctx ^ ": grid count")
        (Array.length walker.sgrids) (Array.length r.sgrids);
      Array.iteri
        (fun i g -> check_grid ~tier (Printf.sprintf "%s grid %d" ctx i) g
            r.sgrids.(i))
        walker.sgrids;
      Alcotest.(check string) (ctx ^ ": device memory") walker.memory r.memory)
    [ ("compiled", I.Compiled); ("bytecode", I.Bytecode) ]

let int_args ints dev =
  [ V.Vbuf (Device.of_int_array dev ~name:"a" ints).Mem.id;
    V.Vbuf (Device.alloc_int dev ~name:"out" 64).Mem.id;
    V.Vbuf (Device.alloc_float dev ~name:"outf" 64).Mem.id ]

let float_args floats dev =
  [ V.Vbuf (Device.of_float_array dev ~name:"a" floats).Mem.id;
    V.Vbuf (Device.alloc_int dev ~name:"out" 64).Mem.id;
    V.Vbuf (Device.alloc_float dev ~name:"outf" 64).Mem.id ]

let atomic_ops =
  [ ("add", `Add); ("min", `Min); ("max", `Max); ("exch", `Exch);
    ("cas", `Cas) ]

(* One atomic under a divergent mask (every third lane sits out), five
   lanes contending per element, a partial second warp.  [old] is none,
   an unboxed slot, or a slot made boxed by a dead float/int assignment. *)
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
    | `None -> []
    | _ ->
      [ if float_buf then store (v "outf") tid (v "old")
        else store (v "out") tid (v "old") ]
  in
  kernel ~name:"atom"
    ~params:[ (if float_buf then pp "a" else pi "a"); pi "out"; pp "outf" ]
    (make_boxed
    @ [ if_then ((tid %: i 3) <>: i 1) (stmt :: record) ])

let atomic_cases () =
  List.iter
    (fun (oname, op) ->
      List.iter
        (fun (bname, float_buf, int_operand) ->
          (* int buffers take int operands only on the native path *)
          List.iter
            (fun (dname, old) ->
              let name =
                Printf.sprintf "atomic %s %s %s" oname bname dname
              in
              let k = atomic_kernel ~float_buf ~int_operand ~op ~old in
              let setup =
                if float_buf then float_args [| 0.5; 1.0; 2.0; 3.0; 4.0 |]
                else int_args [| 0; 1; 2; 3; 4 |]
              in
              diff_small name k ~grid:2 ~block:48 setup)
            [ ("no-old", `None); ("old", `Unboxed); ("boxed-old", `Boxed) ])
        [ ("int", false, true); ("float", true, false);
          ("float/int-operand", true, true) ])
    atomic_ops

(* An out-of-range atomic index raises from the same lane with the same
   message on every tier. *)
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
      diff_small name k ~grid:1 ~block:32 setup;
      let r = run_small ~mode:I.Bytecode k ~grid:1 ~block:32 setup in
      Alcotest.(check bool) (name ^ ": raised Out_of_bounds") true
        (match r.outcome with
        | Error m ->
          String.starts_with ~prefix:"Dpc_gpu.Memory.Out_of_bounds" m
        | Ok () -> false))
    [ false; true ]

(* Boxed slots: int/float/buffer values boxed by a let, under divergence. *)
let boxed_let () =
  let open B in
  let k =
    kernel ~name:"boxed" ~params:[ pi "a"; pi "out"; pp "outf" ]
      [
        if_ ((tid %: i 2) ==: i 0)
          [ set "x" (tid *: i 3) ]
          [ set "x" (to_float tid *: f 0.25) ];
        if_ (tid <: i 10) [ set "y" (v "a") ] [ set "y" (v "out") ];
        store (v "outf") tid (v "x");
        store (v "y") (tid %: i 5) (tid +: i 100);
      ]
  in
  diff_small "boxed let" k ~grid:1 ~block:40 (int_args (Array.make 5 0))

(* Mallocs at every scope and allocator: the count comes from the lowest
   active lane, per-block/per-grid sites allocate once and then hit the
   cache, and the handle lands in an int or a boxed slot. *)
let malloc_scopes () =
  List.iter
    (fun (sname, scope) ->
      List.iter
        (fun boxed ->
          List.iter
            (fun (aname, alloc_kind) ->
              let open B in
              let k =
                kernel ~name:"mal" ~params:[ pi "a"; pi "out"; pp "outf" ]
                  ((if boxed then
                      [ if_then (tid <: i 0) [ set "buf" (i 0) ] ]
                    else [])
                  @ [
                      if_then ((tid %: i 4) <>: i 3)
                        [ malloc ~scope "buf" (i 8 +: tid);
                          (* a boxed handle keeps its atomic on the
                             closure path: only the malloc is native *)
                          (if boxed then store (v "buf") lane tid
                           else atomic_add ~old:"slot" (v "buf") (i 0) (i 1));
                          store (v "out") tid
                            (if boxed then load (v "buf") (lane /: i 2)
                             else v "slot") ];
                    ])
              in
              diff_small ~alloc_kind
                (Printf.sprintf "malloc %s %s%s" sname aname
                   (if boxed then " boxed" else ""))
                k ~grid:3 ~block:48 (int_args [| 0 |]))
            [ ("default", Dpc_alloc.Allocator.Default);
              ("pool", Dpc_alloc.Allocator.Pool);
              ("halloc", Dpc_alloc.Allocator.Halloc) ])
        [ false; true ])
    [ ("warp", A.Per_warp); ("block", A.Per_block); ("grid", A.Per_grid) ]

(* Reads of a float shared array (boxed, but provably numeric) feeding
   float arithmetic and comparisons, including never-written [Vint 0]
   entries; a handle-holding shared array stays on the closure path. *)
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
        store (shared "hs" tid) (i 0) (i 9);
      ]
  in
  diff_small "numeric shared read" k ~grid:2 ~block:64
    (int_args (Array.make 5 0))

(* No app kernel, under any variant or preset, still sends an atomic, a
   let (boxed or not: SpMV's combine reads a float shared array) or a
   malloc through a closure CALL. *)
let apps_native () =
  List.iter
    (fun (pname, cfg) ->
      List.iter
        (fun (e : R.entry) ->
          List.iter
            (fun (variant, prog) ->
              List.iter
                (fun (k : K.t) ->
                  K.finalize k;
                  match Bc.streams_of_kernel k with
                  | None -> ()
                  | Some streams ->
                    List.iter
                      (fun (st : Bc.stream) ->
                        Array.iter
                          (fun t ->
                            if List.mem t ("let" :: native_tags) then
                              Alcotest.failf "%s/%s/%s [%s]: CALL for %s"
                                e.R.name variant k.K.kname pname t)
                          st.Bc.s_calls)
                      streams)
                (K.Program.kernels prog))
            (e.R.programs ~cfg ()))
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
      (fun (pname, cfg) ->
        List.concat_map
          (fun (e : R.entry) ->
            List.map
              (fun v ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s [%s]" e.R.name
                     (H.variant_to_string v) pname)
                  `Slow
                  (diff_app_variant ~cfg e v))
              deep_variants)
          R.all)
      deep_presets
  @ [
      Alcotest.test_case "k20c deep counters stay zero" `Quick
        test_k20c_counters_zero;
      Alcotest.test_case "native atomics all ops" `Quick atomic_cases;
      Alcotest.test_case "native atomic out of bounds" `Quick atomic_oob;
      Alcotest.test_case "native boxed let" `Quick boxed_let;
      Alcotest.test_case "native malloc scopes" `Quick malloc_scopes;
      Alcotest.test_case "native numeric shared read" `Quick numeric_shared;
      Alcotest.test_case "apps lower without native CALLs" `Quick
        apps_native;
    ]
