(** Shared execution primitives of the SIMT interpreter.

    The reference AST walker in {!Interp} is built on the primitives
    below; the bytecode tier in {!Bytecode} shares its error, pending-
    launch and charge definitions (and keeps bit-identical local copies
    of the lane-mask helpers on its hot path), so the two back ends
    agree bit-for-bit on lane masks and charge accounting. *)

exception Sim_error of string

(** Raise {!Sim_error} with a formatted message. *)
val err : ('a, unit, string, 'b) format4 -> 'a

(** A device-side launch recorded but not yet executed.  Children run when
    the launching block reaches [cudaDeviceSynchronize] or finishes — a
    valid CUDA execution order that (unlike depth-first execution at the
    launch point) lets sibling work complete first, so data-dependent
    launch chains (e.g. BFS-Rec level improvements) stay near the breadth-
    first depth instead of the worst-case path length. *)
type pending_launch = {
  pl_callee : string;
  pl_grid : int;
  pl_block : int;
  pl_args : Dpc_kir.Value.t list;
  pl_ids : int array;  (** the Seg_launch id slot to patch at execution *)
  pl_slot : int;
  pl_parent : int * int;  (** launching grid id, block idx *)
  pl_depth : int;  (** nesting depth of the child *)
}

(** Placeholder element for {!Dpc_util.Vec} of pending launches. *)
val dummy_pending : pending_launch

(** {2 Scalar operations}

    The dynamically-typed semantics of the IR's operators, applied per
    lane by the walker (C-style int/float promotion, exact error
    identity).  The bytecode lowers only operands whose static types
    make these semantics a fixed unboxed operation. *)

val unop_apply : Dpc_kir.Ast.unop -> Dpc_kir.Value.t -> Dpc_kir.Value.t

val binop_apply :
  Dpc_kir.Ast.binop -> Dpc_kir.Value.t -> Dpc_kir.Value.t -> Dpc_kir.Value.t

(** {2 Lane-mask utilities} *)

(** Population count of a 32-bit mask. *)
val popcount : int -> int

(** Index of the least-significant set bit of a nonzero 32-bit mask
    (De Bruijn multiply, constant time). *)
val lowest_bit : int -> int

(** Apply [f] to each set lane of [mask], lowest first. *)
val iter_lanes : int -> (int -> unit) -> unit

(** Sub-mask of [mask]'s lanes satisfying the predicate. *)
val lanes_where : int -> (int -> bool) -> int

(** {2 Charge accounting} *)

(** [charge seg cycles active] charges warp issue cycles with [active]
    lanes enabled.  Memory-access accounting lives in {!Memmodel} — the
    single per-access cost path both interpreter tiers share. *)
val charge : Trace.seg_builder -> int -> int -> unit
