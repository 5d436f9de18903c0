(** Forward slot-type inference for the interpreter's bytecode tier.

    The IR is dynamically typed ({!Value.t}); the AST walker carries boxed
    values for every lane.  Most kernels, however, are monomorphic: every
    value a frame slot ever holds is an int, a float, or a buffer handle.
    This module proves that with a small forward fixpoint over the kernel
    body so {!Dpc_sim} can keep such slots in unboxed [int array] /
    [float array] register planes.

    The analysis is deliberately conservative:

    - a slot's type is the join of the types of every expression assigned
      to it ([Let], [For] induction variables, [Atomic] old bindings,
      [Malloc] destinations, parameter declarations);
    - a use that is not dominated by an assignment ("definitely assigned"
      in the Java sense, computed with set intersection at control-flow
      merges) also joins the implicit initial value, [Vint 0];
    - buffer-typed slots track their element type ([Eint]/[Efloat]) so
      loads through them stay typed; element types come from parameter
      declarations ([int*]/[float*]) and from [Malloc] (always int);
    - anything mixed, unknown, or error-prone joins to [St_boxed], and the
      bytecode keeps boxed {!Value.t} lanes there (and sends any kernel
      that reads one to the reference walker).

    Shared arrays get the same treatment, keyed by the type of every value
    stored into them ([Sh_int] when all stores are ints, else boxed). *)

type elem = Eint | Efloat | Eany

(** Lattice of slot types: [St_bot] < {int, float, buf} < [St_boxed]. *)
type slot_ty = St_bot | St_int | St_float | St_buf of elem | St_boxed

type sh_ty = Sh_bot | Sh_int | Sh_boxed

(** Static type of an expression occurrence.  [E_dyn] means "anything the
    reference walker could produce, including a runtime type error". *)
type ety = E_int | E_float | E_buf of elem | E_dyn

type t = {
  slots : slot_ty array;  (** indexed by resolved frame slot *)
  shared : (string * sh_ty) list;  (** same order as the kernel's decls *)
  ok : bool;
      (** false when the body contains unresolved variable slots; the
          bytecode tier must then refuse the kernel entirely *)
}

let slot_ty_to_string = function
  | St_bot -> "bot"
  | St_int -> "int"
  | St_float -> "float"
  | St_buf Eint -> "int*"
  | St_buf Efloat -> "float*"
  | St_buf Eany -> "void*"
  | St_boxed -> "boxed"

let join a b =
  match (a, b) with
  | St_bot, x | x, St_bot -> x
  | St_int, St_int -> St_int
  | St_float, St_float -> St_float
  | St_buf x, St_buf y -> St_buf (if x = y then x else Eany)
  | _ -> St_boxed

let join_sh a b =
  match (a, b) with
  | Sh_bot, x | x, Sh_bot -> x
  | Sh_int, Sh_int -> Sh_int
  | _ -> Sh_boxed

let of_ety = function
  | E_int -> St_int
  | E_float -> St_float
  | E_buf e -> St_buf e
  | E_dyn -> St_boxed

(** Static type a [Var] occurrence of a slot evaluates to. *)
let ety_of_slot = function
  | St_bot | St_int -> E_int
  | St_float -> E_float
  | St_buf e -> E_buf e
  | St_boxed -> E_dyn

let of_param_ty = function
  | Ast.Tint -> St_int
  | Ast.Tfloat -> St_float
  | Ast.Tptr_int -> St_buf Eint
  | Ast.Tptr_float -> St_buf Efloat

module IntSet = Set.Make (Int)

let infer ~(params : Ast.param list) ~(shared : (string * int) list)
    ~(nslots : int) (body : Ast.stmt list) : t =
  let slots = Array.make (Int.max 1 nslots) St_bot in
  let sh = Hashtbl.create (List.length shared + 1) in
  List.iter (fun (name, _) -> Hashtbl.replace sh name Sh_bot) shared;
  let ok = ref true in
  let changed = ref true in
  let jslot s ty =
    let j = join slots.(s) ty in
    if j <> slots.(s) then begin
      slots.(s) <- j;
      changed := true
    end
  in
  let jsh name ty =
    match Hashtbl.find_opt sh name with
    | None -> ()  (* undeclared: the walker errors at runtime *)
    | Some cur ->
      let j = join_sh cur ty in
      if j <> cur then begin
        Hashtbl.replace sh name j;
        changed := true
      end
  in
  List.iter
    (fun (p : Ast.param) ->
      if p.Ast.pvar.Ast.slot < 0 then ok := false
      else jslot p.Ast.pvar.Ast.slot (of_param_ty p.Ast.ptype))
    params;
  (* One definedness-aware forward pass; repeated to fixpoint because a
     later assignment can demote a slot that earlier expressions already
     consulted. *)
  let rec ex (defined : IntSet.t) (e : Ast.expr) : ety =
    match e with
    | Ast.Const (Value.Vint _) -> E_int
    | Ast.Const (Value.Vfloat _) -> E_float
    | Ast.Const (Value.Vbuf _) -> E_buf Eany
    | Ast.Var v ->
      if v.Ast.slot < 0 then begin
        ok := false;
        E_dyn
      end
      else begin
        (* An un-dominated use reads the initial [Vint 0]. *)
        if not (IntSet.mem v.Ast.slot defined) then jslot v.Ast.slot St_int;
        ety_of_slot slots.(v.Ast.slot)
      end
    | Ast.Special _ -> E_int
    | Ast.Unop (op, a) -> (
      let ta = ex defined a in
      match op with
      | Ast.Not | Ast.To_int -> E_int
      | Ast.To_float -> E_float
      | Ast.Neg -> (
        match ta with
        | E_int -> E_int
        | E_float -> E_float
        | E_buf _ -> E_float  (* always raises; any claim is sound *)
        | E_dyn -> E_dyn))
    | Ast.Binop (op, a, b) -> (
      let ta = ex defined a in
      let tb = ex defined b in
      match op with
      | Ast.And | Ast.Or | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt
      | Ast.Ge | Ast.Mod | Ast.Shl | Ast.Shr | Ast.Bit_and | Ast.Bit_or
      | Ast.Bit_xor ->
        E_int
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Min | Ast.Max -> (
        (* [both_int] fails as soon as either side is a float, so a float
           operand forces the float path no matter what the other is. *)
        match (ta, tb) with
        | E_float, _ | _, E_float -> E_float
        | E_int, E_int -> E_int
        | _ -> E_dyn))
    | Ast.Load (be, ie) -> (
      let tb = ex defined be in
      let (_ : ety) = ex defined ie in
      match tb with
      | E_buf Eint -> E_int
      | E_buf Efloat -> E_float
      | _ -> E_dyn)
    | Ast.Shared_load (name, ie) -> (
      let (_ : ety) = ex defined ie in
      match Hashtbl.find_opt sh name with
      | Some (Sh_bot | Sh_int) -> E_int  (* never stored: reads Vint 0 *)
      | Some Sh_boxed | None -> E_dyn)
    | Ast.Buf_len be ->
      let (_ : ety) = ex defined be in
      E_int
  in
  let define defined (v : Ast.var) ty =
    if v.Ast.slot < 0 then begin
      ok := false;
      defined
    end
    else begin
      jslot v.Ast.slot ty;
      IntSet.add v.Ast.slot defined
    end
  in
  let rec st (defined : IntSet.t) (s : Ast.stmt) : IntSet.t =
    match s with
    | Ast.Let (v, e) ->
      let te = ex defined e in
      define defined v (of_ety te)
    | Ast.Store (be, ie, xe) ->
      let (_ : ety) = ex defined be in
      let (_ : ety) = ex defined ie in
      let (_ : ety) = ex defined xe in
      defined
    | Ast.Shared_store (name, ie, xe) ->
      let (_ : ety) = ex defined ie in
      let tx = ex defined xe in
      jsh name (match tx with E_int -> Sh_int | _ -> Sh_boxed);
      defined
    | Ast.If (c, t, f) ->
      let (_ : ety) = ex defined c in
      let dt = sts defined t in
      let df = sts defined f in
      IntSet.inter dt df
    | Ast.While (c, b) ->
      let (_ : ety) = ex defined c in
      let (_ : IntSet.t) = sts defined b in
      defined  (* zero-iteration path: body defs don't survive *)
    | Ast.For (v, lo, hi, b) ->
      let tlo = ex defined lo in
      (* The induction variable is assigned [lo] and then [Vint (i+1)]. *)
      let defined = define defined v (join (of_ety tlo) St_int) in
      let (_ : ety) = ex defined hi in
      let (_ : IntSet.t) = sts defined b in
      defined
    | Ast.Syncthreads | Ast.Device_sync | Ast.Grid_barrier | Ast.Return ->
      defined
    | Ast.Atomic { buf; idx; operand; compare; old; _ } -> (
      let tb = ex defined buf in
      let (_ : ety) = ex defined idx in
      let (_ : ety) = ex defined operand in
      Option.iter (fun e -> ignore (ex defined e : ety)) compare;
      match old with
      | None -> defined
      | Some v ->
        let told =
          match tb with
          | E_buf Eint -> St_int
          | E_buf Efloat -> St_float
          | _ -> St_boxed
        in
        define defined v told)
    | Ast.Launch l ->
      let (_ : ety) = ex defined l.Ast.grid in
      let (_ : ety) = ex defined l.Ast.block in
      List.iter (fun e -> ignore (ex defined e : ety)) l.Ast.args;
      defined
    | Ast.Malloc { dst; count; _ } ->
      let (_ : ety) = ex defined count in
      define defined dst (St_buf Eint)
    | Ast.Free e ->
      let (_ : ety) = ex defined e in
      defined
  and sts defined stmts = List.fold_left st defined stmts
  in
  let params_defined =
    List.fold_left
      (fun acc (p : Ast.param) ->
        if p.Ast.pvar.Ast.slot >= 0 then IntSet.add p.Ast.pvar.Ast.slot acc
        else acc)
      IntSet.empty params
  in
  while !changed do
    changed := false;
    ignore (sts params_defined body : IntSet.t)
  done;
  {
    slots;
    shared =
      List.map
        (fun (name, _) ->
          (name, Option.value ~default:Sh_bot (Hashtbl.find_opt sh name)))
        shared;
    ok = !ok;
  }
