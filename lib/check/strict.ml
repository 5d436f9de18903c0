(** Strict-mode composition (Dpc_check v2).

    PR 4's strict mode vetted every kernel at finalize time
    ({!Check.install_strict_finalize}).  v2 adds two more domain-local
    hooks to the same scope:

    - {!Dpc.Transform.set_apply_check} / {!Dpc.Free_launch.set_apply_check}
      run translation validation ({!Tv}) over every original/transformed
      program pair the moment a transform produces it;
    - the {!Bcverify} pass is exposed here for the engine to run over
      freshly lowered (or disk-loaded) bytecode streams.

    All hooks are per-domain, exactly like the finalize hook: a parallel
    executor installs them inside each worker task (see
    [Dpc_engine.Session]).  Error-severity findings raise
    {!Check.Check_error}. *)

module K = Dpc_kir.Kernel
module T = Dpc.Transform
module Fl = Dpc.Free_launch

let fail_on_errors diags =
  match List.filter Diag.is_error diags with
  | [] -> ()
  | errors -> raise (Check.Check_error (Diag.sort errors))

let install () =
  Check.install_strict_finalize ();
  T.set_apply_check (fun ~parent orig r ->
      fail_on_errors (Tv.check ~parent ~orig r));
  Fl.set_apply_check (fun ~parent orig r ->
      fail_on_errors (Tv.check_free_launch ~parent ~orig r))

let uninstall () =
  Check.uninstall_strict_finalize ();
  T.set_apply_check (fun ~parent:_ _ _ -> ());
  Fl.set_apply_check (fun ~parent:_ _ _ -> ())

(** Run [f] with the full v2 strict scope installed — the finalize
    linter plus both translation-validation hooks — restoring every
    previous hook on the way out (all per-domain; see
    {!Check.with_strict}). *)
let with_strict f =
  let saved_fin = K.finalize_check () in
  let saved_t = T.apply_check () in
  let saved_fl = Fl.apply_check () in
  install ();
  Fun.protect
    ~finally:(fun () ->
      K.set_finalize_check saved_fin;
      T.set_apply_check saved_t;
      Fl.set_apply_check saved_fl)
    f

(** Statically verify every bytecode stream of every kernel of [prog]
    ({!Bcverify}); raises {!Check.Check_error} on findings.  Used by the
    engine at prepare time under strict mode. *)
let verify_bytecode (prog : K.Program.t) =
  fail_on_errors (Bcverify.check prog)
