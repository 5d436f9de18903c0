(** The static kernel verifier, assembled.

    [check_kernel] runs the three kernel-local analyses — barrier
    divergence ({!Uniformity}), shared-memory races ({!Races}), bounds and
    use-before-def ({!Bounds}) — and, when a program context is supplied,
    the per-launch legality pass ({!Legality}).  [check_program] finalizes
    and vets every kernel of a program.

    {b Strict mode.}  {!install_strict_finalize} hooks the verifier into
    {!Dpc_kir.Kernel.finalize} so that every kernel is vetted the moment
    it is finalized — before the interpreter can touch it.  Error-severity
    findings raise {!Check_error}; warnings pass (the CLI's [--strict]
    flag separately refuses warnings at lint time).  The hook is
    kernel-local: launch legality needs the whole program and is only run
    by [check_program].  It is also domain-local — see {!with_strict}. *)

module K = Dpc_kir.Kernel
module Cfg = Dpc_gpu.Config

exception Check_error of Diag.t list

let () =
  Printexc.register_printer (function
    | Check_error ds ->
      Some
        (Printf.sprintf "Check_error:\n%s"
           (String.concat "\n" (List.map (Diag.to_string ?file:None) ds)))
    | _ -> None)

(* Every check vets kernels against the K20c's limits. *)
let cfg = Cfg.k20c

(** All diagnostics for one kernel, sorted.  [prog] enables the launch
    legality checks (callee resolution needs the program). *)
let check_kernel ?prog (k : K.t) : Diag.t list =
  if not (K.is_finalized k) then K.finalize k;
  Uniformity.check k
  @ Races.check k
  @ Bounds.check ~warp_size:cfg.Cfg.warp_size k
  @ Legality.check_kernel ~cfg prog k
  |> Diag.sort

(** Finalize and vet every kernel of a program. *)
let check_program (prog : K.Program.t) : Diag.t list =
  K.Program.finalize prog;
  List.concat_map (fun k -> check_kernel ~prog k) (K.Program.kernels prog)
  |> Diag.sort

(* ------------------------------------------------------------------ *)
(* Strict finalize hook                                                 *)
(* ------------------------------------------------------------------ *)

let strict_hook (k : K.t) =
  let errors =
    List.filter Diag.is_error
      (Uniformity.check k @ Races.check k
      @ Bounds.check ~warp_size:cfg.Cfg.warp_size k)
  in
  if errors <> [] then raise (Check_error (Diag.sort errors))

let install_strict_finalize () = K.set_finalize_check strict_hook

let uninstall_strict_finalize () = K.set_finalize_check (fun _ -> ())

(** Run [f] with the strict hook installed, restoring the previous hook
    on the way out.  The hook is domain-local: [f]'s own finalizations
    are vetted, but work [f] hands to other domains is not — a parallel
    executor must call [with_strict] inside each worker task (as
    [Dpc_engine.Session.run_all] does).  Because the hook state is
    per-domain, concurrent [with_strict] scopes on different domains
    save and restore independently. *)
let with_strict f =
  let saved = K.finalize_check () in
  install_strict_finalize ();
  Fun.protect ~finally:(fun () -> K.set_finalize_check saved) f

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let summary (ds : Diag.t list) =
  let e = List.length (List.filter Diag.is_error ds) in
  let w = List.length ds - e in
  Printf.sprintf "%d error%s, %d warning%s" e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")

let print_report ?file oc (ds : Diag.t list) =
  List.iter
    (fun d -> Printf.fprintf oc "%s\n" (Diag.to_string ?file d))
    (Diag.sort ds)

let report_json (ds : Diag.t list) = Diag.report_to_json (Diag.sort ds)
