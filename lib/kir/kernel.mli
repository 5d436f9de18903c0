(** Kernels and programs.

    A kernel owns its parameter list, shared-memory declarations and body.
    {!finalize} resolves every variable occurrence to a dense frame slot
    (the interpreter indexes per-lane frames by slot, never by name),
    numbers [Malloc] sites so per-grid allocations can be memoized, and
    caches the {!Typing} inference consumed by the bytecode tier.

    The record is exposed concretely: the simulator reads [nslots],
    [nsites] and [typing] directly, and the transforms and checker walk
    [params], [shared] and [body]. *)

type t = {
  kname : string;
  params : Ast.param list;
  shared : (string * int) list;  (** shared arrays: name, element count *)
  body : Ast.stmt list;
  line : int;  (** source line of the definition; 0 when built in memory *)
  mutable nslots : int;  (** -1 until finalized *)
  mutable nsites : int;  (** number of Malloc sites; -1 until finalized *)
  mutable typing : Typing.t option;
      (** slot-type inference result, cached by [finalize]; consumed by the
          simulator's bytecode tier *)
}

exception Invalid_kernel of string

(** @raise Invalid_kernel on duplicate parameter names. *)
val make :
  name:string ->
  ?params:Ast.param list ->
  ?shared:(string * int) list ->
  ?line:int ->
  Ast.stmt list ->
  t

(** Resolve variable slots and number allocation sites.  Idempotent and a
    no-op on an already-finalized kernel, so finalized programs are
    immutable from then on and safe to share read-only across sessions
    and domains (the engine's compiled-kernel cache relies on this).
    Must be called (via {!Program.finalize}) before interpretation. *)
val finalize : t -> unit

val is_finalized : t -> bool

type kernel = t

(** A program is a set of kernels addressable by name (device-side launches
    resolve callees here). *)
module Program : sig
  type t

  val create : unit -> t

  (** @raise Invalid_kernel on duplicate kernel names. *)
  val add : t -> kernel -> unit

  (** @raise Invalid_kernel when absent. *)
  val find : t -> string -> kernel

  val find_opt : t -> string -> kernel option
  val mem : t -> string -> bool

  (** All kernels, sorted by name. *)
  val kernels : t -> kernel list

  (** Every kernel, in the (unspecified but fixed) order {!finalize}
      visits them. *)
  val iter : (kernel -> unit) -> t -> unit

  val finalize : t -> unit
end
