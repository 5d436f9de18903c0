(** Translation validation for the consolidation transform (TV01–TV07).

    {!Dpc.Transform.apply} rewrites a parent/child kernel pair into the
    consolidated program.  Differential runs check it end to end; this
    pass re-checks each produced original/transformed pair
    {e structurally}: it does not re-derive the generated code, it
    verifies the properties that make the rewrite a workload-preserving
    transformation.

    Catalog (all [Error] severity):

    - {b TV01} kernel-set preservation: the transformed program must
      contain exactly the original kernels plus the consolidated child
      (and postwork kernel when promised), and every kernel the
      transform had no business touching must be printed-representation
      identical to its original.
    - {b TV02} insertion-side work conservation: the launch site must
      have become one atomic slot reservation plus exactly one buffered
      store per work variable (offsets [0..nvars-1], each exactly once),
      with the documented overflow fallback — a direct, unannotated
      launch of the original child.
    - {b TV03} fetch-side work conservation: the consolidated child must
      bind every work-dependent child parameter from the buffer at its
      work-clause offset and bound its fetch loop by the item counter.
    - {b TV04} buffer-footprint preservation: every access to a
      consolidation buffer stays inside one item's interval
      ([item*nvars + k], [0 <= k < nvars]); the counter is only ever
      accessed at index 0; the allocations request exactly
      [capacity*nvars] and [1] cells.
    - {b TV05} pragma-contract conformance: allocation scope, barrier
      kind, designated-thread guard and the counter clamp must match the
      pragma's granularity.
    - {b TV06} lint-clean preservation: a lint-clean input must
      transform to a lint-clean output (PR 4's invariants survive the
      rewrite); every fresh error is re-reported under TV06.
    - {b TV07} result-metadata consistency: the kernels the result
      record names must exist and have the documented shapes (entry
      present, consolidated child ends with the buffer/counter
      parameters, postwork kernel present exactly when promised). *)

module A = Dpc_kir.Ast
module K = Dpc_kir.Kernel
module V = Dpc_kir.Value
module Pragma = Dpc_kir.Pragma
module Pp = Dpc_kir.Pp
module T = Dpc.Transform

let err ~id ~kernel fmt =
  Printf.ksprintf
    (fun message -> Diag.make ~id ~severity:Diag.Error ~kernel "%s" message)
    fmt

(* The transforms' reserved buffer/counter names.  Fetch-side code reads
   the [__cons_buf]/[__cons_cnt] parameters; recursive insertion code
   writes the [_next] pair. *)
let is_buf_name n = n = "__cons_buf" || n = "__cons_buf_next"
let is_cnt_name n = n = "__cons_cnt" || n = "__cons_cnt_next"

let var_named pred = function A.Var v -> pred v.A.name | _ -> false

(* [item*nvars + k] — the only index shape allowed into a consolidation
   buffer.  Returns the work-variable offset [k]. *)
let item_offset ~nvars (idx : A.expr) : int option =
  match idx with
  | A.Binop
      (A.Add, A.Binop (A.Mul, _, A.Const (V.Vint nv)), A.Const (V.Vint k))
    when nv = nvars ->
    Some k
  | _ -> None

let iter_kernel (k : K.t) ~on_stmt ~on_expr =
  A.iter_block ~on_stmt ~on_expr k.K.body

(* ------------------------------------------------------------------ *)
(* TV01: kernel-set preservation                                        *)
(* ------------------------------------------------------------------ *)

let names_of (prog : K.Program.t) =
  List.map (fun k -> k.K.kname) (K.Program.kernels prog)

let check_kernel_set ~(parent : string) ~(orig : K.Program.t)
    ~(out : K.Program.t) ~(fresh : string list) ~(rebuilt : string list) :
    Diag.t list =
  let diags = ref [] in
  let expected =
    names_of orig @ List.filter (fun n -> not (K.Program.mem orig n)) fresh
  in
  let actual = names_of out in
  List.iter
    (fun n ->
      if not (List.mem n actual) then
        diags :=
          err ~id:"TV01" ~kernel:parent
            "transformed program lost kernel %s" n
          :: !diags)
    expected;
  List.iter
    (fun n ->
      if not (List.mem n expected) then
        diags :=
          err ~id:"TV01" ~kernel:parent
            "transformed program contains unexpected kernel %s" n
          :: !diags)
    actual;
  (* Kernels the transform had no business touching must be identical. *)
  List.iter
    (fun k ->
      let n = k.K.kname in
      if (not (List.mem n fresh)) && not (List.mem n rebuilt) then
        match K.Program.find_opt out n with
        | None -> ()
        | Some k' ->
          if Pp.kernel k <> Pp.kernel k' then
            diags :=
              err ~id:"TV01" ~kernel:n
                "untouched kernel was modified by the transform"
              :: !diags)
    (K.Program.kernels orig);
  !diags

(* ------------------------------------------------------------------ *)
(* TV02: insertion-side work conservation                               *)
(* ------------------------------------------------------------------ *)

(* The insertion site (in [host], the kernel the launch was rewritten
   in) must reserve a slot atomically and store offsets 0..nvars-1 each
   exactly once, with a direct launch of the original child as the
   overflow fallback. *)
let check_insertions ~(host : K.t) ~(callee : string) ~(nvars : int) :
    Diag.t list =
  let diags = ref [] in
  let atomic = ref false in
  let offsets = ref [] in
  let fallback = ref false in
  iter_kernel host
    ~on_stmt:(fun s ->
      match s with
      | A.Atomic { op = A.Aadd; buf; idx = A.Const (V.Vint 0); old = Some _; _ }
        when var_named is_cnt_name buf ->
        atomic := true
      | A.Store (buf, idx, _) when var_named is_buf_name buf -> (
        match item_offset ~nvars idx with
        | Some k -> offsets := k :: !offsets
        | None -> ())
      | A.Launch { callee = c; pragma = None; _ } when c = callee ->
        fallback := true
      | _ -> ())
    ~on_expr:(fun _ -> ());
  if not !atomic then
    diags :=
      err ~id:"TV02" ~kernel:host.K.kname
        "no atomic slot reservation on the item counter (work items can \
         be lost or duplicated)"
      :: !diags;
  for k = 0 to nvars - 1 do
    match List.length (List.filter (fun x -> x = k) !offsets) with
    | 1 -> ()
    | 0 ->
      diags :=
        err ~id:"TV02" ~kernel:host.K.kname
          "work variable %d of %d is never stored into the consolidation \
           buffer"
          k nvars
        :: !diags
    | n ->
      diags :=
        err ~id:"TV02" ~kernel:host.K.kname
          "work variable %d of %d is stored %d times (expected once)" k nvars
          n
        :: !diags
  done;
  if not !fallback then
    diags :=
      err ~id:"TV02" ~kernel:host.K.kname
        "no direct-launch overflow fallback for child %s (items beyond \
         the buffer capacity would be dropped)"
        callee
      :: !diags;
  !diags

(* ------------------------------------------------------------------ *)
(* TV03: fetch-side work conservation                                   *)
(* ------------------------------------------------------------------ *)

(* Recompute the original launch's parameter roles the way
   [Transform.analyze_site] did: argument positions whose expression is
   a work variable fetch that variable's offset from the buffer. *)
let param_roles ~(work : string list) (launch : A.launch)
    (child : K.t) : (string * int) list =
  List.map2
    (fun (p : A.param) (arg : A.expr) ->
      match arg with
      | A.Var v when List.mem v.A.name work ->
        let rec index i = function
          | [] -> -1
          | w :: rest -> if w = v.A.name then i else index (i + 1) rest
        in
        (p.A.pname, index 0 work)
      | _ -> (p.A.pname, -1))
    child.K.params launch.A.args
  |> List.filter (fun (_, k) -> k >= 0)

let check_fetch ~(cons : K.t) ~(roles : (string * int) list) ~(nvars : int) :
    Diag.t list =
  let diags = ref [] in
  let bound = ref [] in
  let counter_loop = ref false in
  let reads_cnt0 e =
    let found = ref false in
    A.iter_expr
      (fun x ->
        match x with
        | A.Load (b, A.Const (V.Vint 0)) when var_named is_cnt_name b ->
          found := true
        | _ -> ())
      e;
    !found
  in
  iter_kernel cons
    ~on_stmt:(fun s ->
      match s with
      | A.Let (v, A.Load (buf, idx)) when var_named is_buf_name buf -> (
        match item_offset ~nvars idx with
        | Some k -> bound := (v.A.name, k) :: !bound
        | None -> ())
      | A.While (cond, _) when reads_cnt0 cond -> counter_loop := true
      | A.For (_, _, hi, _) when reads_cnt0 hi -> counter_loop := true
      | _ -> ())
    ~on_expr:(fun _ -> ());
  List.iter
    (fun (pname, k) ->
      if not (List.mem (pname, k) !bound) then
        diags :=
          err ~id:"TV03" ~kernel:cons.K.kname
            "work-dependent parameter %s is not fetched from buffer offset \
             %d"
            pname k
          :: !diags)
    roles;
  if not !counter_loop then
    diags :=
      err ~id:"TV03" ~kernel:cons.K.kname
        "no fetch loop bounded by the item counter (buffered items would \
         not all be processed)"
      :: !diags;
  !diags

(* ------------------------------------------------------------------ *)
(* TV04: buffer-footprint preservation                                  *)
(* ------------------------------------------------------------------ *)

let check_footprint ~(parent : string) ~(out : K.Program.t) ~(nvars : int) :
    Diag.t list =
  let diags = ref [] in
  let bad ~kernel fmt = Printf.ksprintf (fun m ->
      diags := err ~id:"TV04" ~kernel "%s" m :: !diags) fmt
  in
  let vet_index ~kernel ~what base idx =
    match base with
    | A.Var v when is_buf_name v.A.name -> (
      match item_offset ~nvars idx with
      | Some k when k >= 0 && k < nvars -> ()
      | Some k ->
        bad ~kernel
          "%s of %s at offset %d outside the item interval [0,%d)" what
          v.A.name k nvars
      | None ->
        bad ~kernel
          "%s of %s with an index not of the form item*%d+k (footprint \
           not provably per-item)"
          what v.A.name nvars)
    | A.Var v when is_cnt_name v.A.name -> (
      match idx with
      | A.Const (V.Vint 0) -> ()
      | _ -> bad ~kernel "%s of counter %s at a nonzero index" what v.A.name)
    | _ -> ()
  in
  List.iter
    (fun k ->
      let kernel = k.K.kname in
      iter_kernel k
        ~on_stmt:(fun s ->
          match s with
          | A.Store (b, idx, _) -> vet_index ~kernel ~what:"store" b idx
          | A.Atomic { buf; idx; _ } -> vet_index ~kernel ~what:"atomic" buf idx
          | A.Malloc { dst; count; _ } when is_buf_name dst.A.name -> (
            match count with
            | A.Binop (A.Mul, _, A.Const (V.Vint nv)) when nv = nvars -> ()
            | _ ->
              bad ~kernel
                "allocation of %s does not request capacity*%d cells"
                dst.A.name nvars)
          | A.Malloc { dst; count; _ } when is_cnt_name dst.A.name -> (
            match count with
            | A.Const (V.Vint 1) -> ()
            | _ ->
              bad ~kernel "allocation of counter %s is not one cell"
                dst.A.name)
          | _ -> ())
        ~on_expr:(fun e ->
          match e with
          | A.Load (b, idx) -> vet_index ~kernel ~what:"load" b idx
          | _ -> ()))
    (K.Program.kernels out);
  ignore parent;
  !diags

(* ------------------------------------------------------------------ *)
(* TV05: pragma-contract conformance                                    *)
(* ------------------------------------------------------------------ *)

(* [host] is the kernel holding the designated-thread launch (the
   transformed parent, or the consolidated kernel when recursive). *)
let check_contract ~(host : K.t) ~(cons : string)
    ~(gran : Pragma.granularity) : Diag.t list =
  let diags = ref [] in
  let miss fmt = Printf.ksprintf (fun m ->
      diags := err ~id:"TV05" ~kernel:host.K.kname "%s" m :: !diags) fmt
  in
  let gname = Pragma.granularity_to_string gran in
  (* Allocation scope. *)
  let want_scope =
    match gran with
    | Pragma.Warp -> A.Per_warp
    | Pragma.Block -> A.Per_block
    | Pragma.Grid -> A.Per_grid
  in
  let scope_ok = ref true in
  let barrier = ref (gran = Pragma.Warp) (* implicit in warp lockstep *) in
  let guard = ref false in
  let clamp = ref false in
  let launch_cons = ref false in
  let want_special =
    match gran with
    | Pragma.Warp -> A.Lane_id
    | Pragma.Block | Pragma.Grid -> A.Thread_idx
  in
  iter_kernel host
    ~on_stmt:(fun s ->
      match s with
      | A.Malloc { dst; scope; _ }
        when is_buf_name dst.A.name || is_cnt_name dst.A.name ->
        if scope <> want_scope then scope_ok := false
      | A.Syncthreads when gran = Pragma.Block -> barrier := true
      | A.Grid_barrier when gran = Pragma.Grid -> barrier := true
      | A.If
          ( A.Binop
              ( A.And,
                A.Binop (A.Eq, A.Special sp, A.Const (V.Vint 0)),
                A.Binop (A.Gt, A.Load (cnt, A.Const (V.Vint 0)), A.Const (V.Vint 0))
              ),
            then_b,
            _ )
        when sp = want_special && var_named is_cnt_name cnt ->
        guard := true;
        A.iter_block then_b
          ~on_stmt:(fun s' ->
            match s' with
            | A.Store (c, A.Const (V.Vint 0), A.Binop (A.Min, _, _))
              when var_named is_cnt_name c ->
              clamp := true
            | A.Launch { callee; pragma = None; _ } when callee = cons ->
              launch_cons := true
            | _ -> ())
          ~on_expr:(fun _ -> ())
      | _ -> ())
    ~on_expr:(fun _ -> ());
  if not !scope_ok then
    miss "consolidation buffers are not allocated at %s scope" gname;
  if not !barrier then
    miss "missing the %s-level barrier before the designated launch" gname;
  if not !guard then
    miss
      "missing the designated-thread guard (%s == 0 && counter > 0) for \
       granularity %s"
      (Dpc_kir.Pp.special_to_string want_special)
      gname
  else begin
    if not !clamp then
      miss
        "designated branch does not clamp the counter to the buffer \
         capacity (overflowed counts would over-read the buffer)";
    if not !launch_cons then
      miss "designated branch does not launch the consolidated kernel %s"
        cons
  end;
  !diags

(* ------------------------------------------------------------------ *)
(* TV06: lint-clean preservation                                        *)
(* ------------------------------------------------------------------ *)

(* The error-severity findings of the full linter. *)
let lint_errors (prog : K.Program.t) : Diag.t list =
  List.filter Diag.is_error (Check.check_program prog)

let check_lint_preserved ~(parent : string) ~(orig : K.Program.t)
    (out : K.Program.t) : Diag.t list =
  if lint_errors orig <> [] then []
  else
    List.map
      (fun (d : Diag.t) ->
        err ~id:"TV06" ~kernel:d.Diag.kernel
          "transform of lint-clean %s introduced %s: %s" parent d.Diag.id
          d.Diag.message)
      (lint_errors out)

(* ------------------------------------------------------------------ *)
(* Drivers                                                              *)
(* ------------------------------------------------------------------ *)

(** Validate one {!Dpc.Transform.apply} result against its input.
    [parent] and [orig] are the transform's arguments; kernels named by
    [r] are looked up in [r.program]. *)
let check ~(parent : string) ~(orig : K.Program.t) (r : T.result) :
    Diag.t list =
  let out = r.T.program in
  let diags = ref [] in
  let add ds = diags := ds @ !diags in
  let meta fmt = Printf.ksprintf (fun m ->
      diags := err ~id:"TV07" ~kernel:parent "%s" m :: !diags) fmt
  in
  let fresh =
    r.T.cons_kernel :: (match r.T.post_kernel with Some p -> [ p ] | None -> [])
  in
  let rebuilt = if r.T.recursive then [] else [ parent ] in
  add (check_kernel_set ~parent ~orig ~out ~fresh ~rebuilt);
  if not (K.Program.mem out r.T.entry) then
    meta "entry kernel %s does not exist in the transformed program"
      r.T.entry;
  (match r.T.post_kernel with
  | Some p when not (K.Program.mem out p) ->
    meta "promised postwork kernel %s does not exist" p
  | _ -> ());
  (* Everything further needs the original launch site and the
     consolidated kernel; report shape mismatches instead of raising. *)
  match
    ( K.Program.find_opt orig parent,
      K.Program.find_opt out r.T.cons_kernel )
  with
  | None, _ ->
    meta "original program has no kernel %s" parent;
    Diag.sort !diags
  | _, None ->
    meta "consolidated kernel %s does not exist" r.T.cons_kernel;
    Diag.sort !diags
  | Some p0, Some cons -> (
    match T.find_annotated_launch p0 with
    | exception T.Unsupported m ->
      meta "original parent has no valid annotated launch: %s" m;
      Diag.sort !diags
    | launch, pragma ->
      let nvars = List.length pragma.Pragma.work in
      if nvars <> r.T.nvars then
        meta "result claims %d buffered variables; the work clause has %d"
          r.T.nvars nvars;
      (match
         (List.rev cons.K.params : A.param list)
       with
      | cp :: bp :: _
        when bp.A.pname = "__cons_buf" && cp.A.pname = "__cons_cnt" ->
        ()
      | _ ->
        meta
          "consolidated kernel %s does not end with the __cons_buf, \
           __cons_cnt parameters"
          r.T.cons_kernel);
      let host_name = if r.T.recursive then r.T.cons_kernel else parent in
      (match K.Program.find_opt out host_name with
      | None -> () (* already reported by TV01/TV07 *)
      | Some host ->
        add (check_insertions ~host ~callee:launch.A.callee ~nvars);
        add (check_contract ~host ~cons:r.T.cons_kernel ~gran:r.T.granularity));
      (match K.Program.find_opt orig launch.A.callee with
      | None -> meta "original program has no child kernel %s" launch.A.callee
      | Some child when List.length child.K.params = List.length launch.A.args
        ->
        let roles = param_roles ~work:pragma.Pragma.work launch child in
        add (check_fetch ~cons ~roles ~nvars)
      | Some _ ->
        meta "launch of %s: argument count mismatch" launch.A.callee);
      add (check_footprint ~parent ~out ~nvars);
      add (check_lint_preserved ~parent ~orig out);
      Diag.sort !diags)
