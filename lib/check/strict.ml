(** Strict mode: vet a freshly built program before anything can run it.

    An app builds each variant's program at one place
    ([Dpc_apps.Harness.prepare]); under a strict spec that build calls
    {!vet} on the result, so a program that fails any check never
    reaches the cache or the interpreter.  Error-severity findings raise
    {!Check.Check_error}; warnings pass. *)

module K = Dpc_kir.Kernel

let fail_on_errors diags =
  match List.filter Diag.is_error diags with
  | [] -> ()
  | errors -> raise (Check.Check_error (Diag.sort errors))

(** Vet [prog], stopping at the first failing check:

    + the kernel-local lint ({!Check.local_checks}: uniformity, races,
      bounds — launch legality is left to [dpcc --check]) on each kernel,
      in {!K.Program.finalize} order, finalizing it first;
    + when [prog] is a consolidation, [tv = (parent, orig, r)] with
      [prog == r.program]: translation validation ({!Tv.check}) of [r]
      against the program [orig] the transform consumed;
    + when [tier] is the bytecode tier, the bytecode verifier
      ({!Bcverify.check}) over every stream [prog] lowers to.

    @raise Check.Check_error with the first failing check's errors. *)
let vet ?tv ~(tier : Dpc_sim.Interp.mode) (prog : K.Program.t) =
  K.Program.iter
    (fun k ->
      K.finalize k;
      fail_on_errors (Check.local_checks k))
    prog;
  Option.iter
    (fun (parent, orig, r) -> fail_on_errors (Tv.check ~parent ~orig r))
    tv;
  if tier = Dpc_sim.Interp.Bytecode then fail_on_errors (Bcverify.check prog)
