(* Tests for the static kernel verifier (Dpc_check): the uniformity,
   race, bounds and legality analyses, the mutation harness, strict
   vetting of built programs, source locations threaded from MiniCU, and
   the regression suite pinning the analyses' false-positive envelope on
   the registered apps. *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module P = Dpc_kir.Pragma
module Check = Dpc_check.Check
module Diag = Dpc_check.Diag
module U = Dpc_check.Uniformity
module Bounds = Dpc_check.Bounds
module Eu = Dpc_check.Expr_util
module Mutate = Dpc_check.Mutate
module Strict = Dpc_check.Strict
module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
open Dpc_kir.Build

let ids ds = List.map (fun (d : Diag.t) -> d.Diag.id) ds

let has_id id ds = List.mem id (ids ds)

let finalized k =
  K.finalize k;
  k

(* --- expression utilities ------------------------------------------------- *)

let test_const_fold () =
  let cases =
    [
      ((i 3 +: i 4) *: i 2, Some 14);
      (i 7 /: i 2, Some 3);
      (i 7 %: i 0, None);
      (min_ (i 3) (i 9), Some 3);
      (neg (i 5), Some (-5));
      (v "x" +: i 1, None);
    ]
  in
  List.iter
    (fun (e, expect) ->
      Alcotest.(check (option int))
        (Dpc_kir.Pp.expr e) expect (Eu.const_int e))
    cases;
  Alcotest.(check (option int))
    "warpSize folds when the device is known" (Some 64)
    (Eu.const_int ~warp_size:32 (warpsize *: i 2))

let test_block_distinct () =
  let yes = [ tid; tid +: i 4; tid *: i 2; bdim *: bid +: tid ] in
  let no = [ lane; tid %: i 2; tid *: i 0; tid +: tid; v "x"; tid +: v "x" ] in
  List.iter
    (fun e ->
      Alcotest.(check bool) (Dpc_kir.Pp.expr e) true (Eu.block_distinct e))
    yes;
  List.iter
    (fun e ->
      Alcotest.(check bool) (Dpc_kir.Pp.expr e) false (Eu.block_distinct e))
    no

(* --- uniformity ----------------------------------------------------------- *)

let slot_of k name =
  let found = ref (-1) in
  let note (v : A.var) =
    if v.A.name = name && v.A.slot >= 0 then found := v.A.slot
  in
  A.iter_block k.K.body
    ~on_stmt:(fun s ->
      match s with
      | A.Let (v, _) | A.For (v, _, _, _) | A.Malloc { dst = v; _ }
      | A.Atomic { old = Some v; _ } ->
        note v
      | _ -> ())
    ~on_expr:(fun e -> match e with A.Var v -> note v | _ -> ());
  List.iter
    (fun (p : A.param) ->
      if p.A.pname = name then found := p.A.pvar.A.slot)
    k.K.params;
  if !found < 0 then Alcotest.failf "no resolved slot for %s" name;
  !found

let test_uniformity_levels () =
  let k =
    finalized
      (kernel ~name:"levels" ~params:[ p "n" ]
         [
           set "d" tid;
           set "w" warp;
           set "b" bid;
           set "u" (v "n" +: i 1);
           (* uniform rhs under a divergent branch is still divergent *)
           if_then (tid <: v "n") [ set "g" (i 1) ];
         ])
  in
  let levels = U.infer k in
  let check name expect =
    Alcotest.(check string)
      name
      (U.level_to_string expect)
      (U.level_to_string levels.(slot_of k name))
  in
  check "d" U.Divergent;
  check "w" U.Warp_uniform;
  check "b" U.Block_uniform;
  check "u" U.Uniform;
  check "g" U.Divergent;
  check "n" U.Uniform

let test_bd01_path () =
  let k =
    finalized
      (kernel ~name:"bd" ~params:[ p "n" ]
         [ set "t" tid; if_then (v "t" <: v "n") [ sync ] ])
  in
  match U.check k with
  | [ d ] ->
    Alcotest.(check string) "id" "BD01" d.Diag.id;
    Alcotest.(check string) "path" "body[1]/then[0]" d.Diag.path;
    Alcotest.(check bool) "is error" true (Diag.is_error d)
  | ds -> Alcotest.failf "expected exactly BD01, got %d diags" (List.length ds)

let test_grid_barrier_needs_grid_uniform () =
  let bad =
    finalized (kernel ~name:"g1" [ if_then (bid ==: i 0) [ grid_barrier ] ])
  in
  Alcotest.(check bool) "BD02 on block-divergent" true
    (has_id "BD02" (U.check bad));
  let ok = finalized (kernel ~name:"g2" [ grid_barrier ]) in
  Alcotest.(check (list string)) "top-level barrier clean" [] (ids (U.check ok))

let test_loop_condition_divergence () =
  (* A loop whose condition reads a divergent variable makes its body
     divergent, even when the barrier itself is unconditioned inside. *)
  let k =
    finalized
      (kernel ~name:"loop" ~params:[ p "n" ]
         [ set "t" tid; while_ (v "t" <: v "n") [ sync; set "t" (v "t" +: bdim) ] ])
  in
  Alcotest.(check bool) "BD01 in divergent loop" true
    (has_id "BD01" (U.check k))

(* --- races ----------------------------------------------------------------- *)

let test_race_suppressions () =
  (* The everyday cooperative patterns must stay quiet. *)
  let clean =
    finalized
      (kernel ~name:"clean" ~params:[ p "x" ] ~shared:[ ("s", 64) ]
         [
           shared_set "s" tid (v "x");
           sync;
           set "y" (shared "s" ((tid +: i 1) %: i 64));
         ])
  in
  Alcotest.(check (list string)) "barrier separates" []
    (ids (Dpc_check.Races.check clean))

let test_race_detected_without_sync () =
  let racy =
    finalized
      (kernel ~name:"racy" ~params:[ p "x" ] ~shared:[ ("s", 64) ]
         [
           shared_set "s" tid (v "x");
           set "y" (shared "s" ((tid +: i 1) %: i 64));
         ])
  in
  Alcotest.(check bool) "SM02" true
    (has_id "SM02" (Dpc_check.Races.check racy))

let test_race_distinct_constants_disjoint () =
  let k =
    finalized
      (kernel ~name:"disj" ~params:[ p "x" ] ~shared:[ ("s", 8) ]
         [
           if_then (tid ==: i 0) [ shared_set "s" (i 0) (v "x") ];
           if_then (tid ==: i 1) [ shared_set "s" (i 1) (v "x") ];
           set "y" (shared "s" (i 2));
         ])
  in
  Alcotest.(check (list string)) "distinct constant slots" []
    (ids (Dpc_check.Races.check k))

(* --- bounds ---------------------------------------------------------------- *)

let test_interval_loop () =
  let k =
    finalized
      (kernel ~name:"iv" [ for_ "j" ~from:(i 2) ~below:(i 10) [ set "x" (v "j") ] ])
  in
  let slots = Bounds.infer k in
  let j = slots.(slot_of k "j") in
  Alcotest.(check (option int)) "j lo" (Some 2) j.Bounds.lo;
  Alcotest.(check (option int)) "j hi" (Some 9) j.Bounds.hi

let test_bounds_definite_vs_may () =
  let definite =
    finalized
      (kernel ~name:"b1" ~shared:[ ("s", 16) ] [ shared_set "s" (i 16) (i 0) ])
  in
  Alcotest.(check bool) "BN01" true (has_id "BN01" (Bounds.check definite));
  let may =
    finalized
      (kernel ~name:"b2" ~shared:[ ("s", 16) ]
         [ for_ "j" ~from:(i 0) ~below:(i 17) [ shared_set "s" (v "j") (i 0) ] ])
  in
  let ds = Bounds.check may in
  Alcotest.(check bool) "BN02" true (has_id "BN02" ds);
  Alcotest.(check bool) "not BN01" false (has_id "BN01" ds);
  (* unbounded (thread-indexed) accesses are never flagged *)
  let unbounded =
    finalized
      (kernel ~name:"b3" ~shared:[ ("s", 16) ] [ shared_set "s" tid (i 0) ])
  in
  Alcotest.(check (list string)) "tid index quiet" []
    (ids (Bounds.check unbounded))

let test_use_before_def () =
  let k =
    finalized
      (kernel ~name:"ubd" ~params:[ p "n" ]
         [
           if_ (tid <: v "n") [ set "t" (i 1) ] [ set "u" (i 2) ];
           set "r" (v "t" +: v "u");
         ])
  in
  let ds = Bounds.check k in
  (* both t and u are only assigned on one side of the branch *)
  Alcotest.(check int) "two BN03" 2
    (List.length (List.filter (fun (d : Diag.t) -> d.Diag.id = "BN03") ds));
  let ok =
    finalized
      (kernel ~name:"dom" ~params:[ p "n" ]
         [
           if_ (tid <: v "n") [ set "t" (i 1) ] [ set "t" (i 2) ];
           set "r" (v "t");
         ])
  in
  Alcotest.(check (list string)) "both-arm def dominates" []
    (ids (Bounds.check ok))

(* --- legality -------------------------------------------------------------- *)

let test_legality_from_source () =
  (* Diagnostics carry the pragma's source line. *)
  let src =
    "__global__ void child(int* a, int x) {\n\
    \  a[x] = x;\n\
     }\n\
     __global__ void parent(int* a, int n) {\n\
    \  var w = blockIdx.x * blockDim.x + threadIdx.x;\n\
    \  if (w < n) {\n\
    \    #pragma dp consldt(warp) work(missing)\n\
    \    launch child<<<1, 64>>>(a, w);\n\
    \  }\n\
     }\n"
  in
  let prog = Dpc_minicu.Parser.parse_program src in
  let ds = Check.check_program prog in
  match List.filter (fun (d : Diag.t) -> d.Diag.id = "LC05") ds with
  | [ d ] ->
    Alcotest.(check string) "kernel" "parent" d.Diag.kernel;
    Alcotest.(check int) "pragma line" 7 d.Diag.line
  | _ -> Alcotest.fail "expected exactly one LC05"

let test_kernel_line_threaded () =
  let src =
    "__global__ void first(int n) {\n\
    \  var x = n;\n\
     }\n\
     __global__ void second(int n) {\n\
    \  if (threadIdx.x < n) {\n\
    \    __syncthreads();\n\
    \  }\n\
     }\n"
  in
  let prog = Dpc_minicu.Parser.parse_program src in
  let ds = Check.check_program prog in
  match ds with
  | [ d ] ->
    Alcotest.(check string) "id" "BD01" d.Diag.id;
    Alcotest.(check string) "kernel" "second" d.Diag.kernel;
    Alcotest.(check int) "kernel line" 4 d.Diag.line
  | _ -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* --- strict vetting -------------------------------------------------------- *)

let program ks =
  let prog = K.Program.create () in
  List.iter (K.Program.add prog) ks;
  prog

(* The kernel-local lint: a barrier under a thread-dependent branch is
   an error (BD01); a possible use before definition is only a warning,
   which strict vetting lets through. *)
let test_strict_vet_lint () =
  let vet k = Strict.vet ~tier:Dpc_sim.Interp.Bytecode (program [ k ]) in
  (match
     vet
       (kernel ~name:"strict_bad" ~params:[ p "n" ]
          [ if_then (tid <: v "n") [ sync ] ])
   with
  | exception Check.Check_error ds ->
    Alcotest.(check bool) "BD01 reported" true (has_id "BD01" ds)
  | () -> Alcotest.fail "divergent barrier passed strict vetting");
  vet
    (kernel ~name:"strict_warn" ~params:[ p "n" ]
       [ if_then (tid <: v "n") [ set "t" (i 1) ]; set "u" (v "t") ])

(* Translation validation: a faithful consolidation passes, and the same
   result with a corrupted entry kernel raises TV07. *)
let test_strict_vet_tv () =
  let orig = Mutate.tv_prog P.Block in
  let r =
    Dpc.Transform.apply ~cfg:Dpc_gpu.Config.k20c ~parent:Mutate.tv_parent orig
  in
  let vet r =
    Strict.vet ~tier:Dpc_sim.Interp.Bytecode
      ~tv:(Mutate.tv_parent, orig, r)
      r.Dpc.Transform.program
  in
  vet r;
  match vet { r with Dpc.Transform.entry = "tv_no_such_kernel" } with
  | exception Check.Check_error ds ->
    Alcotest.(check bool) "TV07 reported" true (has_id "TV07" ds)
  | () -> Alcotest.fail "corrupted transform passed strict vetting"

(* A strict spec vets the program inside the build the preparer calls:
   a family whose kernel has a divergent barrier is refused by
   [Harness.prepare] itself, before the preparer caches it and before
   any device exists to launch it.  The same family prepares under a
   plain spec. *)
let test_strict_prepare_rejects () =
  let src =
    "__global__ void bad(int n) {\n\
    \  if (threadIdx.x < n) {\n\
    \    __syncthreads();\n\
    \  }\n\
     }\n"
  in
  let fam =
    { H.source = (fun _ -> src); parent = "bad"; flat = (src, "bad") }
  in
  let cached = ref 0 in
  let preparer ~key:_ ~interp:_ ~cfgkey:_ ~build =
    let p = build () in
    incr cached;
    (p, None)
  in
  let spec ~strict v =
    Dpc_engine.Scenario.to_spec ~preparer ~strict
      (Dpc_engine.Scenario.make ~app:"SSSP" v)
  in
  List.iter
    (fun v ->
      let label = H.variant_to_string v in
      (match H.prepare (spec ~strict:true v) fam with
      | exception Check.Check_error ds ->
        Alcotest.(check bool) (label ^ ": BD01 reported") true
          (has_id "BD01" ds)
      | _ -> Alcotest.failf "%s: bad family passed a strict prepare" label);
      Alcotest.(check int) (label ^ ": nothing cached") 0 !cached;
      ignore (H.prepare (spec ~strict:false v) fam : H.prepared);
      Alcotest.(check int) (label ^ ": plain prepare caches") 1 !cached;
      cached := 0)
    [ H.Basic; H.Flat ]

(* --- mutation harness ------------------------------------------------------ *)

let test_mutants_all_detected () =
  List.iter
    (fun (o : Mutate.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" o.Mutate.mutant.Mutate.mname
           o.Mutate.mutant.Mutate.analysis)
        true o.Mutate.ok)
    (Mutate.run_all ())

let test_mutants_cover_all_analyses () =
  let seeded =
    List.filter (fun (m : Mutate.mutant) -> m.Mutate.expect <> None) Mutate.all
  in
  Alcotest.(check bool) "at least 8 seeded-bad kernels" true
    (List.length seeded >= 8);
  let verifier_seeded =
    List.filter
      (fun (m : Mutate.mutant) ->
        m.Mutate.analysis = "tv" || m.Mutate.analysis = "bytecode")
      seeded
  in
  Alcotest.(check bool) "at least 15 seeded tv/bytecode mutants" true
    (List.length verifier_seeded >= 15);
  List.iter
    (fun analysis ->
      Alcotest.(check bool) (analysis ^ " covered") true
        (List.exists
           (fun (m : Mutate.mutant) -> m.Mutate.analysis = analysis)
           seeded))
    [ "uniformity"; "races"; "bounds"; "legality"; "tv"; "bytecode" ]

(* --- the apps stay clean (false-positive regression) ----------------------- *)

(* Every registered app at every variant, built through its family as
   [dpcc --check] sweeps it: the entry, the variant's label, the parsed
   original and the prep. *)
let app_builds () =
  List.concat_map
    (fun (e : R.entry) ->
      List.map
        (fun v ->
          let orig, prep = H.build e.R.family ~cfg:Dpc_gpu.Config.k20c v in
          (e, H.variant_to_string v, orig, prep))
        H.all_variants)
    R.all

let check_silent label ds =
  Alcotest.(check (list string)) label []
    (List.map (Diag.to_string ?file:None) ds)

let test_apps_lint_clean () =
  List.iter
    (fun ((e : R.entry), variant, _, prep) ->
      check_silent
        (Printf.sprintf "%s/%s" e.R.name variant)
        (Check.check_program prep.H.p_prog))
    (app_builds ())

(* Translation validation accepts every real consolidation of every
   registered app at every granularity (false-positive envelope for Tv). *)
let test_tv_apps_clean () =
  List.iter
    (fun ((e : R.entry), variant, orig, prep) ->
      Option.iter
        (fun r ->
          check_silent
            (Printf.sprintf "%s/tv/%s" e.R.name variant)
            (Dpc_check.Tv.check ~parent:e.R.family.H.parent ~orig r))
        prep.H.p_trans)
    (app_builds ())

(* The bytecode verifier accepts every stream the real lowering produces
   for every app variant (false-positive envelope for Bcverify). *)
let test_bcverify_apps_clean () =
  List.iter
    (fun ((e : R.entry), variant, _, prep) ->
      check_silent
        (Printf.sprintf "%s/%s/bytecode" e.R.name variant)
        (Dpc_check.Bcverify.check prep.H.p_prog))
    (app_builds ())

(* Direct bytecode-verifier units: a truncated FUSE quad (the exact
   corruption a torn .prep body would induce), an unknown opcode, and a
   well-formed straight-line stream.  The verifier must diagnose, never
   raise, and stay silent on the clean stream. *)
let test_bcverify_direct () =
  let stream code =
    {
      Dpc_sim.Bytecode.s_kname = "unit";
      s_code = Array.of_list code;
      s_nic = 2;
      s_nfc = 1;
      s_ntmpi = 2;
      s_ntmpf = 1;
      s_nint = 4;
      s_nflt = 2;
      s_nsites = 0;
      s_nshared = 1;
      s_nnames = 2;
      s_result = None;
    }
  in
  let check code = Dpc_check.Bcverify.check_stream (stream code) in
  Alcotest.(check bool) "truncated FUSE quad -> BC02" true
    (has_id "BC02" (check [ 7; 2; 0; 0; 0; 1; 2 ]));
  Alcotest.(check bool) "unknown opcode -> BC01" true
    (has_id "BC01" (check [ 99 ]));
  Alcotest.(check bool) "register out of range -> BC03" true
    (has_id "BC03" (check [ 7; 1; 0; 0; 9; 1; 2 ]));
  Alcotest.(check (list string))
    "clean stream is silent" []
    (List.map
       (Diag.to_string ?file:None)
       (check [ 7; 1; 0; 0; 0; 1; 2; 8; 0; 1; 3; 12; 0; 2; 18; 1 ]))

(* --- JSON report ----------------------------------------------------------- *)

let test_report_json_roundtrip () =
  let diags =
    [
      Diag.make ~id:"BD01" ~severity:Diag.Error ~kernel:"k"
        ~path:"body[0]" ~line:3 "boom";
      Diag.make ~id:"BN03" ~severity:Diag.Warning ~kernel:"k" "quiet";
    ]
  in
  let json = Dpc_prof.Json.to_string (Diag.report_to_json diags) in
  match Dpc_prof.Json.parse json with
  | Dpc_prof.Json.Obj fields ->
    Alcotest.(check bool) "schema" true
      (List.assoc_opt "schema" fields
      = Some (Dpc_prof.Json.String "dpc-check-v1"));
    Alcotest.(check bool) "errors count" true
      (List.assoc_opt "errors" fields = Some (Dpc_prof.Json.Int 1));
    Alcotest.(check bool) "warnings count" true
      (List.assoc_opt "warnings" fields = Some (Dpc_prof.Json.Int 1))
  | _ -> Alcotest.fail "expected object"

let suite =
  [
    Alcotest.test_case "const fold" `Quick test_const_fold;
    Alcotest.test_case "block distinct" `Quick test_block_distinct;
    Alcotest.test_case "uniformity levels" `Quick test_uniformity_levels;
    Alcotest.test_case "BD01 path" `Quick test_bd01_path;
    Alcotest.test_case "grid barrier uniformity" `Quick
      test_grid_barrier_needs_grid_uniform;
    Alcotest.test_case "divergent loop barrier" `Quick
      test_loop_condition_divergence;
    Alcotest.test_case "race suppressions" `Quick test_race_suppressions;
    Alcotest.test_case "race without sync" `Quick
      test_race_detected_without_sync;
    Alcotest.test_case "disjoint constants" `Quick
      test_race_distinct_constants_disjoint;
    Alcotest.test_case "interval of for" `Quick test_interval_loop;
    Alcotest.test_case "bounds definite vs may" `Quick
      test_bounds_definite_vs_may;
    Alcotest.test_case "use before def" `Quick test_use_before_def;
    Alcotest.test_case "legality pragma line" `Quick test_legality_from_source;
    Alcotest.test_case "kernel line threaded" `Quick test_kernel_line_threaded;
    Alcotest.test_case "strict vet lint" `Quick test_strict_vet_lint;
    Alcotest.test_case "strict vet tv" `Quick test_strict_vet_tv;
    Alcotest.test_case "strict prepare rejects" `Quick
      test_strict_prepare_rejects;
    Alcotest.test_case "mutants all detected" `Quick test_mutants_all_detected;
    Alcotest.test_case "mutants cover analyses" `Quick
      test_mutants_cover_all_analyses;
    Alcotest.test_case "apps lint clean" `Quick test_apps_lint_clean;
    Alcotest.test_case "apps tv clean" `Quick test_tv_apps_clean;
    Alcotest.test_case "apps bytecode clean" `Quick test_bcverify_apps_clean;
    Alcotest.test_case "bytecode verifier direct" `Quick test_bcverify_direct;
    Alcotest.test_case "report json" `Quick test_report_json_roundtrip;
  ]
