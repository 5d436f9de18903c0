(** Shared execution primitives of the SIMT interpreter (see the
    interface): the walker's lane-mask helpers and scalar semantics, and
    the error, pending-launch and charge definitions both back ends
    share. *)

module A = Dpc_kir.Ast
module V = Dpc_kir.Value

exception Sim_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(* A device-side launch recorded but not yet executed.  Children run when
   the launching block reaches [cudaDeviceSynchronize] or finishes — a
   valid CUDA execution order that (unlike depth-first execution at the
   launch point) lets sibling work complete first, so data-dependent
   launch chains (e.g. BFS-Rec level improvements) stay near the breadth-
   first depth instead of the worst-case path length. *)
type pending_launch = {
  pl_callee : string;
  pl_grid : int;
  pl_block : int;
  pl_args : V.t list;
  pl_ids : int array;  (** the Seg_launch id slot to patch at execution *)
  pl_slot : int;
  pl_parent : int * int;  (** launching grid id, block idx *)
  pl_depth : int;  (** nesting depth of the child *)
}

let dummy_pending =
  { pl_callee = ""; pl_grid = 0; pl_block = 0; pl_args = []; pl_ids = [||];
    pl_slot = 0; pl_parent = (-1, -1); pl_depth = 0 }

(* --- scalar operations --------------------------------------------------

   The dynamically-typed semantics of the IR's operators, applied per
   lane by the walker (C-style int/float promotion, exact error
   identity). *)

let unop_apply op (x : V.t) : V.t =
  match (op : A.unop) with
  | A.Neg -> (
    match x with V.Vint i -> V.Vint (-i) | _ -> V.Vfloat (-.V.as_float x))
  | A.Not -> V.of_bool (not (V.truthy x))
  | A.To_float -> V.Vfloat (V.as_float x)
  | A.To_int -> V.Vint (V.as_int x)

let both_int a b =
  match (a, b) with V.Vint _, V.Vint _ -> true | _ -> false

let binop_apply op (a : V.t) (b : V.t) : V.t =
  match (op : A.binop) with
  | A.Add ->
    if both_int a b then V.Vint (V.as_int a + V.as_int b)
    else V.Vfloat (V.as_float a +. V.as_float b)
  | A.Sub ->
    if both_int a b then V.Vint (V.as_int a - V.as_int b)
    else V.Vfloat (V.as_float a -. V.as_float b)
  | A.Mul ->
    if both_int a b then V.Vint (V.as_int a * V.as_int b)
    else V.Vfloat (V.as_float a *. V.as_float b)
  | A.Div ->
    if both_int a b then begin
      let d = V.as_int b in
      if d = 0 then err "integer division by zero";
      V.Vint (V.as_int a / d)
    end
    else V.Vfloat (V.as_float a /. V.as_float b)
  | A.Mod ->
    let d = V.as_int b in
    if d = 0 then err "integer modulo by zero";
    V.Vint (V.as_int a mod d)
  | A.Min ->
    if both_int a b then V.Vint (Int.min (V.as_int a) (V.as_int b))
    else V.Vfloat (Float.min (V.as_float a) (V.as_float b))
  | A.Max ->
    if both_int a b then V.Vint (Int.max (V.as_int a) (V.as_int b))
    else V.Vfloat (Float.max (V.as_float a) (V.as_float b))
  | A.And -> V.of_bool (V.truthy a && V.truthy b)
  | A.Or -> V.of_bool (V.truthy a || V.truthy b)
  | A.Eq -> (
    match (a, b) with
    | V.Vbuf x, V.Vbuf y -> V.of_bool (x = y)
    | _ ->
      if both_int a b then V.of_bool (V.as_int a = V.as_int b)
      else V.of_bool (V.as_float a = V.as_float b))
  | A.Ne -> (
    match (a, b) with
    | V.Vbuf x, V.Vbuf y -> V.of_bool (x <> y)
    | _ ->
      if both_int a b then V.of_bool (V.as_int a <> V.as_int b)
      else V.of_bool (V.as_float a <> V.as_float b))
  | A.Lt ->
    if both_int a b then V.of_bool (V.as_int a < V.as_int b)
    else V.of_bool (V.as_float a < V.as_float b)
  | A.Le ->
    if both_int a b then V.of_bool (V.as_int a <= V.as_int b)
    else V.of_bool (V.as_float a <= V.as_float b)
  | A.Gt ->
    if both_int a b then V.of_bool (V.as_int a > V.as_int b)
    else V.of_bool (V.as_float a > V.as_float b)
  | A.Ge ->
    if both_int a b then V.of_bool (V.as_int a >= V.as_int b)
    else V.of_bool (V.as_float a >= V.as_float b)
  | A.Shl -> V.Vint (V.as_int a lsl V.as_int b)
  | A.Shr -> V.Vint (V.as_int a asr V.as_int b)
  | A.Bit_and -> V.Vint (V.as_int a land V.as_int b)
  | A.Bit_or -> V.Vint (V.as_int a lor V.as_int b)
  | A.Bit_xor -> V.Vint (V.as_int a lxor V.as_int b)

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (x * 0x01010101) lsr 24 land 0xff

(* De Bruijn multiply: constant-time index of the least-significant set
   bit of a 32-bit mask (Leiserson/Prokop/Randall).  [m land (-m)]
   isolates the lowest bit; multiplying by the De Bruijn constant makes
   the top 5 bits enumerate all 32 one-hot inputs uniquely. *)
let debruijn_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit m =
  debruijn_table.((((m land -m) * 0x077CB531) lsr 27) land 31)

let iter_lanes mask f =
  let m = ref mask in
  while !m <> 0 do
    f (lowest_bit !m);
    (* clear the lowest set bit *)
    m := !m land (!m - 1)
  done

let lanes_where mask f =
  let out = ref 0 in
  iter_lanes mask (fun l -> if f l then out := !out lor (1 lsl l));
  !out

(** Charge [cycles] warp issue cycles with [active] lanes enabled. *)
let charge (seg : Trace.seg_builder) cycles active =
  seg.Trace.issue <- seg.Trace.issue + cycles;
  seg.Trace.lane_cycles <- seg.Trace.lane_cycles + (cycles * active)

(* Memory-access accounting deliberately does NOT live here: coalescing,
   L2, bank conflicts and MSHR occupancy are {!Memmodel}'s — the one
   accounting path both interpreter tiers share. *)
