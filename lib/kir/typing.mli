(** Forward slot-type inference for the interpreter's bytecode tier.

    The IR is dynamically typed ({!Value.t}); the AST walker carries boxed
    values for every lane.  Most kernels, however, are monomorphic: every
    value a frame slot ever holds is an int, a float, or a buffer handle.
    This module proves that with a small forward fixpoint over the kernel
    body so [Dpc_sim] can keep such slots in unboxed [int array] /
    [float array] register planes, and [Dpc_check] can reuse the same
    dataflow scaffolding for its verifier passes.

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

val slot_ty_to_string : slot_ty -> string

(** Lattice joins (least upper bounds). *)
val join : slot_ty -> slot_ty -> slot_ty

val join_sh : sh_ty -> sh_ty -> sh_ty

val of_ety : ety -> slot_ty

(** Static type a [Var] occurrence of a slot evaluates to. *)
val ety_of_slot : slot_ty -> ety

val of_param_ty : Ast.ty -> slot_ty

(** Run the forward fixpoint over a finalized body.  [nslots] must cover
    every resolved slot; unresolved occurrences set [ok = false]. *)
val infer :
  params:Ast.param list ->
  shared:(string * int) list ->
  nslots:int ->
  Ast.stmt list ->
  t
