(** JSON snapshots of the evaluation suite and of scenario sweeps.

    Two schemas:

    - [dpc-bench-v1] ({!suite_json}): the full figure suite — raw
      {!Dpc_sim.Metrics.report}s plus the rendered tables, cell-for-cell
      identical to what [bin/experiments] prints.
    - [dpc-sweep-v1] ({!sweep_json}): one record per scenario outcome,
      in submission order; the same records the serve daemon streams.

    Exports carry no timestamps or environment data, so identical runs
    produce byte-identical files (the CI exact-diff guards depend on
    this). *)

val schema_version : string

(** The full suite snapshot.  [scale] records the problem-size override
    the suite ran with (absent = every app's default); [tables] are the
    rendered figures, in presentation order. *)
val suite_json :
  ?scale:int -> Suite.t -> tables:Dpc_util.Table.t list -> Dpc_prof.Json.t

(** One tagged engine outcome: the full scenario (object, canonical key,
    hash) and either the metrics report or the failure message. *)
val outcome_json : Dpc_engine.Session.outcome -> Dpc_prof.Json.t

(** Sweep snapshot wrapping {!outcome_json} records, with [source] tag
    ["bin/experiments"] (the daemon client writes ["dpc-client"]). *)
val sweep_json : Dpc_engine.Session.outcome list -> Dpc_prof.Json.t

(** Pretty-print a JSON document to [path]. *)
val write_file : string -> Dpc_prof.Json.t -> unit
