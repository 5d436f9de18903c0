(** Deep-copying AST rewriter with hooks.

    The consolidation transforms are expressed as rewrites: substitute
    special registers (e.g. [blockIdx.x -> 0] when inlining a solo-block
    child), replace launch statements with buffer insertions, or drop
    statements.  The rewriter always returns fresh [var] cells (like
    {!Ast.copy_stmt}) so the output can be finalized independently. *)

type hooks = {
  special : Ast.special -> Ast.expr option;
      (** replace a special register by an expression *)
  launch : Ast.launch -> Ast.stmt list option;
      (** replace a launch statement (the replacement is NOT rewritten) *)
  stmt : Ast.stmt -> Ast.stmt list option;
      (** replace any other statement before recursion (the replacement is
          NOT rewritten); applied before the structural walk *)
}

(** Hooks that rewrite nothing: a pure deep copy. *)
val no_hooks : hooks

val rw_block : hooks -> Ast.stmt list -> Ast.stmt list

(** Substitute special registers throughout a block (deep copy). *)
val subst_specials :
  (Ast.special -> Ast.expr option) -> Ast.stmt list -> Ast.stmt list

(** Variables read by a block before being defined in it, excluding the
    given bound names.  Used to check the postwork self-containment rule. *)
val free_reads : bound:string list -> Ast.stmt list -> string list
