(** Shared run collection for the evaluation figures.

    Figures 7-10 all read the same 35 runs (7 apps x 5 variants); this
    module runs them once and caches the reports.  Every run verifies its
    output against the CPU reference, so a populated suite doubles as an
    integration test of the whole stack. *)

module H = Dpc_apps.Harness
module R = Dpc_apps.Registry
module M = Dpc_sim.Metrics
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session

type row = {
  app : string;
  dataset : string;
  results : (H.variant * M.report) list;
}

type t = row list

let variant_order = H.all_variants

let report_of row v = List.assoc v row.results

let basic row = report_of row H.Basic

(** File-name slug for one (app, variant) run: lowercase with every
    non-alphanumeric squeezed to ['-'] (e.g. ["sssp-basic-dp"]). *)
let run_slug ~app variant =
  let raw = app ^ "-" ^ H.variant_to_string variant in
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as l -> l
      | _ -> '-')
    raw

(** The artifact hook for {!Session.run_all} (and {!collect}): creates
    [dir] when absent, then captures every run's event stream and drops
    its Chrome trace ([<slug>.trace.json]) and per-kernel profile
    ([<slug>.profile.json]) next to each other in [dir], named by
    {!run_slug}.  It runs inside the worker domain; runs of distinct
    (app, variant) pairs write distinct files, so parallel collection is
    race-free and the bytes depend only on the (deterministic) run. *)
let trace_to dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  fun (sc : Scenario.t) dev ->
    let slug = run_slug ~app:sc.Scenario.app sc.Scenario.variant in
    let events = Dpc_sim.Device.profile dev in
    let num_smx = (Dpc_sim.Device.config dev).Dpc_gpu.Config.num_smx in
    let save name contents =
      let oc = open_out (Filename.concat dir name) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents)
    in
    save (slug ^ ".trace.json")
      (Dpc_prof.Chrome_trace.to_string ~num_smx events);
    save (slug ^ ".profile.json")
      (Dpc_prof.Json.to_string_pretty
         (Dpc_prof.Profile.to_json (Dpc_prof.Profile.of_events events)))

(** The suite as a declarative scenario list: every registry app (or the
    [apps] subset) at every variant, at [scale], on the [cfg] device
    preset. *)
let scenarios ?scale ?(cfg = "k20c") ?(apps = R.all) () =
  List.concat_map
    (fun (e : R.entry) ->
      List.map
        (fun v -> Scenario.make ~cfg ?scale ~app:e.R.name v)
        variant_order)
    apps

(** Collect all runs through the caller's [session], which fans the
    35 independent (app x variant) simulations over its pool and shares
    its caches with other figures.  [scale] overrides each app's default
    problem size (interpreted per app); [cfg] names a device preset;
    [apps] restricts the collection to a subset of the registry (default:
    all seven); [inspect] is handed to {!Session.run_all} (e.g.
    {!trace_to}).  Every simulation builds its own device and dataset
    from fixed seeds, so the collected reports are identical regardless
    of the job count. *)
let collect ?scale ?(cfg = "k20c") ?(apps = R.all) ?inspect ~session () :
    t =
  let outcomes =
    Session.run_all ?inspect session (scenarios ?scale ~cfg ~apps ())
  in
  (* Reassemble per-app rows; [run_all] preserves submission order, so
     this grouping is deterministic.  [Scenario.make] canonicalized the
     app names against the registry, so matching on [e.name] is exact. *)
  List.map
    (fun (e : R.entry) ->
      let results =
        List.filter_map
          (fun (o : Session.outcome) ->
            if o.Session.scenario.Scenario.app = e.R.name then
              Some (o.Session.scenario.Scenario.variant, Session.report o)
            else None)
          outcomes
      in
      { app = e.R.name; dataset = e.R.dataset; results })
    apps

let speedup_over_basic row v =
  (basic row).M.cycles /. (report_of row v).M.cycles

(** Per-variant geometric-mean speedup over basic-dp across all apps. *)
let mean_speedups (t : t) =
  List.map
    (fun v ->
      (v, Dpc_util.Stats.geomean (List.map (fun row -> speedup_over_basic row v) t)))
    [ H.Flat; H.Cons Dpc_kir.Pragma.Warp; H.Cons Dpc_kir.Pragma.Block;
      H.Cons Dpc_kir.Pragma.Grid ]
