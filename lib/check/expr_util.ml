(** Shared expression machinery for the verifier passes: structural
    equality, constant folding, thread-distinctness of index expressions,
    designated-thread guard recognition, and statement-path formatting. *)

module A = Dpc_kir.Ast
module V = Dpc_kir.Value

(* ------------------------------------------------------------------ *)
(* Statement paths                                                      *)
(* ------------------------------------------------------------------ *)

(** [top i] and [sub parent label i] format the statement paths carried by
    diagnostics: [body[2]/if/then[0]], [body[4]/while[1]], ... *)
let top i = Printf.sprintf "body[%d]" i

let sub parent label i = Printf.sprintf "%s/%s[%d]" parent label i

(* ------------------------------------------------------------------ *)
(* Structural equality (variables compared by name)                     *)
(* ------------------------------------------------------------------ *)

let rec equal (a : A.expr) (b : A.expr) =
  match (a, b) with
  | A.Const x, A.Const y -> x = y
  | A.Var u, A.Var v -> u.A.name = v.A.name
  | A.Special s, A.Special t -> s = t
  | A.Unop (op, x), A.Unop (op', y) -> op = op' && equal x y
  | A.Binop (op, x1, x2), A.Binop (op', y1, y2) ->
    op = op' && equal x1 y1 && equal x2 y2
  | A.Load (x1, x2), A.Load (y1, y2) -> equal x1 y1 && equal x2 y2
  | A.Shared_load (n, x), A.Shared_load (m, y) -> n = m && equal x y
  | A.Buf_len x, A.Buf_len y -> equal x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Constant folding                                                     *)
(* ------------------------------------------------------------------ *)

(** Fold an expression to an integer constant when it contains only
    integer literals (and [warpSize], when the device is known).  The
    arithmetic mirrors the interpreter's integer semantics; anything that
    would raise at runtime (division by zero) folds to [None]. *)
let rec const_int ?warp_size (e : A.expr) : int option =
  let bool_ b = Some (if b then 1 else 0) in
  match e with
  | A.Const (V.Vint n) -> Some n
  | A.Special A.Warp_size -> warp_size
  | A.Unop (A.Neg, a) -> Option.map Int.neg (const_int ?warp_size a)
  | A.Unop (A.Not, a) ->
    Option.map (fun n -> if n = 0 then 1 else 0) (const_int ?warp_size a)
  | A.Unop (A.To_int, a) -> const_int ?warp_size a
  | A.Binop (op, a, b) -> (
    match (const_int ?warp_size a, const_int ?warp_size b) with
    | Some x, Some y -> (
      match op with
      | A.Add -> Some (x + y)
      | A.Sub -> Some (x - y)
      | A.Mul -> Some (x * y)
      | A.Div -> if y = 0 then None else Some (x / y)
      | A.Mod -> if y = 0 then None else Some (x mod y)
      | A.Min -> Some (Int.min x y)
      | A.Max -> Some (Int.max x y)
      | A.And -> bool_ (x <> 0 && y <> 0)
      | A.Or -> bool_ (x <> 0 || y <> 0)
      | A.Eq -> bool_ (x = y)
      | A.Ne -> bool_ (x <> y)
      | A.Lt -> bool_ (x < y)
      | A.Le -> bool_ (x <= y)
      | A.Gt -> bool_ (x > y)
      | A.Ge -> bool_ (x >= y)
      | A.Shl -> Some (x lsl y)
      | A.Shr -> Some (x asr y)
      | A.Bit_and -> Some (x land y)
      | A.Bit_or -> Some (x lor y)
      | A.Bit_xor -> Some (x lxor y))
    | _ -> None)
  | A.Const (V.Vfloat _ | V.Vbuf _)
  | A.Var _ | A.Special _ | A.Unop _ | A.Load _ | A.Shared_load _
  | A.Buf_len _ ->
    None

(* ------------------------------------------------------------------ *)
(* Thread-distinct index expressions                                    *)
(* ------------------------------------------------------------------ *)

(** Is an index expression provably {e injective in the thread id within a
    block}: do two distinct threads of one block always hit distinct
    slots, at every point in time?  This is what lets the race detector
    suppress the [a[tid] = ...] false-positive class.  The sufficient
    condition used: the expression is affine in [threadIdx.x] with a
    provably non-zero coefficient, and every other leaf is a constant or a
    block-invariant, loop-invariant special ([blockDim.x], [gridDim.x],
    [warpSize], [blockIdx.x]).  Note [laneId] does NOT qualify: lane 0 of
    every warp shares [laneId = 0], so [a[laneId]] races across warps. *)
let block_distinct (e : A.expr) : bool =
  (* `Tid: injective in threadIdx.x; `Unif: thread- and loop-invariant;
     `No: neither provable. *)
  let rec go e =
    match e with
    | A.Special A.Thread_idx -> `Tid
    | A.Const (V.Vint _) -> `Unif
    | A.Special (A.Block_dim | A.Grid_dim | A.Warp_size | A.Block_idx) ->
      `Unif
    | A.Binop ((A.Add | A.Sub), a, b) -> (
      match (go a, go b) with
      | `Tid, `Unif | `Unif, `Tid -> `Tid
      | `Unif, `Unif -> `Unif
      | _ -> `No)
    | A.Binop (A.Mul, a, b) -> (
      match (go a, go b, const_int a, const_int b) with
      | `Tid, `Unif, _, Some c when c <> 0 -> `Tid
      | `Unif, `Tid, Some c, _ when c <> 0 -> `Tid
      | `Unif, `Unif, _, _ -> `Unif
      | _ -> `No)
    | A.Binop (A.Shl, a, b) -> (
      match (go a, const_int b) with
      | `Tid, Some c when c >= 0 -> `Tid
      | `Unif, Some _ -> `Unif
      | _ -> `No)
    | _ -> `No
  in
  go e = `Tid

(** Recognize designated-thread guards: conditions that restrict execution
    to exactly one thread of the consolidation domain, such as
    [threadIdx.x == 0] or [laneId == 0 && ...].  Returns the guard's
    normalized key so two accesses under the {e same} guard can be proven
    same-thread.  A [laneId == c] guard pins one thread per warp — single
    within a warp but not within a block — so it is keyed separately. *)
let rec single_thread_guard (cond : A.expr) : string option =
  match cond with
  | A.Binop (A.Eq, A.Special A.Thread_idx, rhs)
  | A.Binop (A.Eq, rhs, A.Special A.Thread_idx) ->
    Option.map (Printf.sprintf "tid=%d") (const_int rhs)
  | A.Binop (A.And, a, b) -> (
    match single_thread_guard a with
    | Some _ as g -> g
    | None -> single_thread_guard b)
  | _ -> None
