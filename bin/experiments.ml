(* Experiment runner: regenerates every table and figure of the paper's
   evaluation (Section V) on the simulated device.

   Usage:
     experiments fig5            buffer allocators on SSSP
     experiments fig6            kernel configurations on TD
     experiments fig7-10         the overall evaluation figures
     experiments summary         Section V.C average speedups
     experiments all             everything above
     experiments ablations       the device and transform ablations
                                 A1-A7 (not part of all)

   Scenario mode (runs no figure; a figure name beside it is refused):
     --scenario KEY=V,...   run one first-class scenario (repeatable);
                            e.g. --scenario app=SSSP,variant=grid-level,scale=700
     --sweep FILE.json      run every scenario of a JSON sweep file
     --no-cache             disable cross-run program and input reuse

   Machine-readable output:
     --json FILE   figures: the suite metrics snapshot (per app x variant
                   reports plus the rendered tables; see EXPERIMENTS.md);
                   scenario mode: the dpc-sweep-v1 outcome list
     --trace DIR   write a Chrome trace-event file and a per-kernel
                   profile for every suite run into DIR
   Both describe the figs 7-10 suite: with figures that do not read it
   (fig5, fig6, ablations alone) they are refused with exit code 2.

   All execution goes through one Dpc_engine.Session: independent
   simulations fan out over OCaml domains (--jobs N; --jobs 1 is the
   serial path; --sched shared|steal picks the pool's dispatch
   scheduler) and runs differing only in scale/seed/allocator share
   one program build through the session's compiled-kernel cache; runs
   of one app on the same data share one dataset and CPU reference
   through its input cache.  The
   printed tables — and the JSON and trace files — are byte-identical
   regardless of the job count, the scheduler and the cache setting. *)

open Cmdliner
module E = Dpc_experiments
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module M = Dpc_sim.Metrics

let suite_tables suite =
  [
    E.Figs7_10.fig7 suite;
    E.Figs7_10.fig8 suite;
    E.Figs7_10.fig9 suite;
    E.Figs7_10.fig10 suite;
    E.Figs7_10.summary suite;
  ]

let print_suite_figs suite which =
  let t =
    match which with
    | `Fig7 -> E.Figs7_10.fig7 suite
    | `Fig8 -> E.Figs7_10.fig8 suite
    | `Fig9 -> E.Figs7_10.fig9 suite
    | `Fig10 -> E.Figs7_10.fig10 suite
    | `Summary -> E.Figs7_10.summary suite
  in
  Dpc_util.Table.print t;
  print_newline ()

let suite_figures = [ "fig7"; "fig8"; "fig9"; "fig10"; "summary"; "all" ]

let figure_names = "fig5" :: "fig6" :: suite_figures @ [ "ablations" ]

let needs_suite f = List.mem f suite_figures

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- scenario mode -------------------------------------------------------- *)

(* Run an explicit scenario list (from --scenario flags and/or a --sweep
   file), print one table row per outcome, and optionally export the
   dpc-sweep-v1 snapshot.  Exit 1 if any scenario failed. *)
let run_scenarios session ~verbose ~json_out scenario_args sweep_file =
  let parsed = List.map Scenario.of_string scenario_args in
  let from_file =
    match sweep_file with
    | None -> []
    | Some path -> Scenario.sweep_of_json (Dpc_prof.Json.parse (read_file path))
  in
  let scs = parsed @ from_file in
  if scs = [] then begin
    prerr_endline "experiments: empty sweep (no scenarios given)";
    exit 2
  end;
  let outcomes = Session.run_all session scs in
  let t =
    Dpc_util.Table.create ~title:"Scenario sweep"
      ~headers:[ "scenario"; "cycles"; "device launches"; "warp eff" ]
      ~aligns:
        Dpc_util.Table.[ Left; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (o : Session.outcome) ->
      let key = Scenario.key o.Session.scenario in
      match o.Session.result with
      | Ok r ->
        Dpc_util.Table.add_row t
          [ key;
            Printf.sprintf "%.0f" r.M.cycles;
            string_of_int r.M.device_launches;
            Dpc_util.Table.fmt_pct r.M.warp_efficiency ]
      | Error e ->
        Dpc_util.Table.add_row t
          [ key; "failed: " ^ Printexc.to_string e; "-"; "-" ])
    outcomes;
  Dpc_util.Table.print t;
  (match json_out with
  | Some path ->
    E.Export.write_file path (E.Export.sweep_json outcomes);
    if verbose then Printf.eprintf "[sweep] outcome snapshot -> %s\n%!" path
  | None -> ());
  if verbose then begin
    let s = Session.cache_stats session in
    Printf.eprintf "[sweep] program cache: %d hits, %d misses\n%!"
      s.Dpc_engine.Kcache.hits s.Dpc_engine.Kcache.misses;
    let i = Session.input_stats session in
    Printf.eprintf "[sweep] input cache: %d builds, %d hits\n%!"
      i.Dpc_engine.Input_cache.builds i.Dpc_engine.Input_cache.hits
  end;
  if List.exists (fun o -> Result.is_error o.Session.result) outcomes then 1
  else 0

let run figures quiet scale jobs sched json_out trace_dir interp
    scenario_args sweep_file no_cache cache_dir =
  let verbose = not quiet in
  (match interp with
  | Some m -> Dpc_sim.Interp.set_default_mode m
  | None -> ());
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  let scenario_mode = scenario_args <> [] || sweep_file <> None in
  (* Scenario mode runs no figure, so a figure name beside it is a
     mistake, not something to ignore. *)
  (match figures with
  | f :: _ when scenario_mode ->
    Printf.eprintf "experiments: figure %S given with --scenario/--sweep\n" f;
    exit 2
  | _ -> ());
  let figures = if figures = [] then [ "all" ] else figures in
  let figures = List.map String.lowercase_ascii figures in
  (* Check every figure name before anything runs, so a misspelt name
     does not first cost every figure listed before it. *)
  (match List.find_opt (fun f -> not (List.mem f figure_names)) figures with
  | Some other ->
    Printf.eprintf "unknown figure %S (%s)\n" other
      (String.concat " " figure_names);
    exit 2
  | _ -> ());
  (* One session for everything this invocation runs: figures and
     scenario sweeps share its pool and compiled-kernel cache. *)
  let session =
    Session.create ~jobs ~sched ~verbose ~cache:(not no_cache)
      ?persist:cache_dir ()
  in
  if scenario_mode then (
    try run_scenarios session ~verbose ~json_out scenario_args sweep_file
    with Invalid_argument msg | Failure msg ->
      Printf.eprintf "experiments: %s\n" msg;
      2)
  else begin
    let reads_suite = List.exists needs_suite figures in
    (* The JSON snapshot and the trace files describe the shared run
       collection of figs 7-10, so they are refused when no requested
       figure reads it.  A trace capture needs its own session (the
       artifact hook is fixed at session creation), so only the
       untraced path reuses the shared one. *)
    if (not reads_suite) && (json_out <> None || trace_dir <> None) then begin
      Printf.eprintf
        "experiments: %s only with a figure that reads the suite (%s)\n"
        (match (json_out, trace_dir) with
        | Some _, Some _ -> "--json and --trace work"
        | Some _, None -> "--json works"
        | _ -> "--trace works")
        (String.concat " " suite_figures);
      exit 2
    end;
    let suite =
      if reads_suite then
        Some
          (E.Suite.collect ~verbose ?scale ~jobs ~sched ?trace_dir
             ?session:(if trace_dir = None then Some session else None)
             ())
      else None
    in
    let get_suite () = Option.get suite in
    List.iter
      (fun f ->
        match f with
        | "fig5" -> E.Fig5_allocators.print ?scale ~session ()
        | "fig6" -> E.Fig6_config.print ~verbose ?scale ~session ()
        | "fig7" -> print_suite_figs (get_suite ()) `Fig7
        | "fig8" -> print_suite_figs (get_suite ()) `Fig8
        | "fig9" -> print_suite_figs (get_suite ()) `Fig9
        | "fig10" -> print_suite_figs (get_suite ()) `Fig10
        | "summary" -> print_suite_figs (get_suite ()) `Summary
        | "ablations" -> E.Ablations.print session
        | "all" ->
          let s = get_suite () in
          print_suite_figs s `Fig7;
          print_suite_figs s `Fig8;
          print_suite_figs s `Fig9;
          print_suite_figs s `Fig10;
          print_suite_figs s `Summary;
          E.Fig5_allocators.print ?scale ~session ();
          print_newline ();
          E.Fig6_config.print ~verbose ?scale ~session ()
        | _ -> assert false (* names checked above *))
      figures;
    (match json_out with
    | Some path ->
      let s = get_suite () in
      E.Export.write_file path
        (E.Export.suite_json ?scale s ~tables:(suite_tables s));
      if verbose then
        Printf.eprintf "[suite] metrics snapshot -> %s\n%!" path
    | None -> ());
    (match trace_dir with
    | Some dir when verbose ->
      Printf.eprintf "[suite] per-run traces and profiles -> %s/\n%!" dir
    | _ -> ());
    0
  end

let figures =
  Arg.(value & pos_all string [] & info [] ~docv:"FIGURE"
       ~doc:"Which figures to regenerate (fig5, fig6, fig7, fig8, fig9, \
             fig10, summary, all, ablations).")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress logging.")

let scale =
  Arg.(value & opt (some int) None & info [ "scale" ] ~docv:"N"
       ~doc:"Override each app's problem size (interpreted per app: node \
             count, log2 node count, or tree shrink divisor).")

let jobs =
  Arg.(value & opt int (Dpc_util.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
       ~doc:"Run up to $(docv) independent simulations concurrently on \
             OCaml domains (default: cores - 1; 1 = serial).  Output \
             tables are byte-identical for any value.")

let pool_sched =
  let s =
    Arg.enum
      [ ("shared", Dpc_util.Pool.Shared); ("steal", Dpc_util.Pool.Steal) ]
  in
  Arg.(value & opt s Dpc_util.Pool.Shared & info [ "sched" ] ~docv:"SCHED"
       ~doc:"Batch dispatch scheduler: $(b,shared) (one atomic counter, \
             submission order — the default) or $(b,steal) (the same \
             counter over the scenarios sorted longest-first by their \
             cost estimate).  Tables, JSON and traces are byte-identical \
             either way; only wall-clock scheduling differs.")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
       ~doc:"Write the metrics snapshot as JSON to $(docv): the suite \
             snapshot for figures, the dpc-sweep-v1 outcome list in \
             scenario mode.  With figures, needs one that reads the \
             suite (fig7-10, summary, all).")

let trace_dir =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"DIR"
       ~doc:"Profile every suite run and write Chrome trace-event files \
             (*.trace.json, for Perfetto/chrome://tracing) and per-kernel \
             profiles (*.profile.json) into $(docv).  Needs a figure \
             that reads the suite (fig7-10, summary, all).")

let interp =
  let backend =
    Arg.enum
      [ ("bytecode", Dpc_sim.Interp.Bytecode);
        ("ref", Dpc_sim.Interp.Reference) ]
  in
  Arg.(value & opt (some backend) None & info [ "interp" ] ~docv:"BACKEND"
       ~doc:"Interpreter back end: bytecode|ref — $(b,bytecode) (fused \
             linear bytecode dispatch, the default) or $(b,ref) \
             (reference AST walker).  Both emit byte-identical metrics; \
             overrides $(b,DPC_INTERP).")

let scenario_args =
  Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"KEY=V,..."
       ~doc:"Run one first-class scenario instead of a figure \
             (repeatable).  Keys: app, variant, policy, alloc, cfg, \
             cfg.FIELD, scale, seed, sched, interp, x.KEY; e.g. \
             $(b,app=SSSP,variant=grid-level,scale=700).")

let sweep_file =
  Arg.(value & opt (some file) None & info [ "sweep" ] ~docv:"FILE"
       ~doc:"Run every scenario of a JSON sweep file: a list (or a \
             {\"scenarios\": [...]} object) of scenario objects or \
             canonical scenario strings.")

let no_cache =
  Arg.(value & flag & info [ "no-cache" ]
       ~doc:"Disable the session's cross-run caches: every run parses, \
             transforms and finalizes its programs from scratch, and \
             generates its dataset and solves its CPU reference anew \
             (input reuse is off too).  Results are identical either \
             way.")

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
       ~doc:"Back the compiled-kernel cache with the persistent on-disk \
             store rooted at $(docv) (created if absent): prepared \
             programs survive across invocations, so cold processes \
             start warm.  Results are identical either way.  Ignored \
             with $(b,--no-cache).")

let cmd =
  let doc = "regenerate the paper's evaluation tables and figures" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(
      const run $ figures $ quiet $ scale $ jobs $ pool_sched $ json_out
      $ trace_dir $ interp $ scenario_args $ sweep_file $ no_cache
      $ cache_dir)

let () = exit (Cmd.eval' cmd)
