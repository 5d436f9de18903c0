(** The static kernel verifier, assembled.

    [check_kernel] runs the three kernel-local analyses — barrier
    divergence ({!Uniformity}), shared-memory races ({!Races}), bounds and
    use-before-def ({!Bounds}) — and, when a program context is supplied,
    the per-launch legality pass ({!Legality}).  [check_program] finalizes
    and vets every kernel of a program.  {!Strict.vet} runs the
    kernel-local analyses ({!local_checks}) on every program an app
    builds under strict mode. *)

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

(** The kernel-local analyses' diagnostics for a finalized kernel,
    unsorted: everything but launch legality, which needs the whole
    program. *)
let local_checks (k : K.t) : Diag.t list =
  Uniformity.check k
  @ Races.check k
  @ Bounds.check ~warp_size:cfg.Cfg.warp_size k

(** All diagnostics for one kernel, sorted.  [prog] enables the launch
    legality checks (callee resolution needs the program). *)
let check_kernel ?prog (k : K.t) : Diag.t list =
  if not (K.is_finalized k) then K.finalize k;
  local_checks k @ Legality.check_kernel ~cfg prog k |> Diag.sort

(** Finalize and vet every kernel of a program. *)
let check_program (prog : K.Program.t) : Diag.t list =
  K.Program.finalize prog;
  List.concat_map (fun k -> check_kernel ~prog k) (K.Program.kernels prog)
  |> Diag.sort

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
