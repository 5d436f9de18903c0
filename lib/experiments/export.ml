(** JSON snapshots of the evaluation suite (the `BENCH_pr2.json` schema,
    documented in EXPERIMENTS.md).

    Two complementary views of the same {!Suite.t} collection:

    - the raw {!Dpc_sim.Metrics.report} of every (app x variant) run, as
      numbers, for trend tracking and regression gating across PRs;
    - the rendered figure tables, cell-for-cell identical to what
      [bin/experiments] prints, so a JSON consumer can cross-check the
      human-readable output without re-deriving any formatting.

    The export contains no timestamps or environment data: identical
    runs produce byte-identical files. *)

module Json = Dpc_prof.Json
module M = Dpc_sim.Metrics
module H = Dpc_apps.Harness
module Table = Dpc_util.Table

let schema_version = "dpc-bench-v1"

let table_json (t : Table.t) =
  Json.Obj
    [
      ("title", Json.String (Table.title t));
      ( "headers",
        Json.List (List.map (fun h -> Json.String h) (Table.headers t)) );
      ( "rows",
        Json.List
          (List.map
             (fun r -> Json.List (List.map (fun c -> Json.String c) r))
             (Table.rows t)) );
    ]

let row_json (row : Suite.row) =
  Json.Obj
    [
      ("app", Json.String row.Suite.app);
      ("dataset", Json.String row.Suite.dataset);
      ( "variants",
        Json.List
          (List.map
             (fun (v, report) ->
               Json.Obj
                 [
                   ("variant", Json.String (H.variant_to_string v));
                   ("report", M.to_json report);
                 ])
             row.Suite.results) );
    ]

(** The full snapshot.  [scale] records the problem-size override the
    suite ran with (absent = every app's default); [tables] are the
    rendered figures, in presentation order. *)
let suite_json ?scale (s : Suite.t) ~(tables : Table.t list) =
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("source", Json.String "bin/experiments");
     ]
    @ (match scale with
      | Some n -> [ ("scale", Json.Int n) ]
      | None -> [])
    @ [
        ("apps", Json.List (List.map row_json s));
        ( "mean_speedups",
          Json.List
            (List.map
               (fun (v, x) ->
                 Json.Obj
                   [
                     ("variant", Json.String (H.variant_to_string v));
                     ("over_basic", Json.Float x);
                   ])
               (Suite.mean_speedups s)) );
        ("tables", Json.List (List.map table_json tables));
      ])

(* --- scenario sweeps (dpc-sweep-v1) ---------------------------------------- *)

let sweep_schema_version = "dpc-sweep-v1"

(** One tagged engine outcome: the full scenario (object and canonical
    key plus hash, so consumers can join runs across sweeps), and either
    the metrics report or the failure message.  No wall clock: identical
    runs must export byte-identical records (the CI exact-diff guards
    depend on it). *)
let outcome_json (o : Dpc_engine.Session.outcome) =
  let sc = o.Dpc_engine.Session.scenario in
  Json.Obj
    ([
       ("scenario", Dpc_engine.Scenario.to_json sc);
       ("key", Json.String (Dpc_engine.Scenario.key sc));
       ("hash", Json.String (Dpc_engine.Scenario.hash sc));
     ]
    @
    match o.Dpc_engine.Session.result with
    | Ok r -> [ ("report", M.to_json r) ]
    | Error e -> [ ("error", Json.String (Printexc.to_string e)) ])

(** Snapshot of a scenario sweep ([--scenario]/[--sweep] runs): one
    entry per outcome, in submission order.  Like {!suite_json} it
    carries no timestamps or environment data, so identical sweeps
    produce byte-identical files. *)
let sweep_json outcomes =
  Json.Obj
    [
      ("schema", Json.String sweep_schema_version);
      ("source", Json.String "bin/experiments");
      ("runs", Json.List (List.map outcome_json outcomes));
    ]

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty json))
