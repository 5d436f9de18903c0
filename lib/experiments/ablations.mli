(** Ablations of the simulated device and the consolidation transform
    (DESIGN.md section 5), reported in simulated cycles:

    - A1 device-launch-latency sensitivity (basic-dp vs grid-level);
    - A2 SMX scheduler: processor sharing vs FCFS;
    - A3 pending-pool capacity (the cudaDeviceSetLimit analogue);
    - A4 perBufferSize sizing vs overflow fallbacks;
    - A5 basic-dp slowdown growth with problem scale;
    - A6 Free Launch (thread reuse) vs workload consolidation;
    - A7 fastest consolidation granularity per device preset.

    Every table is identical for any job count and pool scheduler of the
    session. *)

(** A1–A6, in order.  A1/A2/A3/A5 run on [session]; A4 and A6 build
    their own devices and run serially. *)
val tables : Dpc_engine.Session.t -> Dpc_util.Table.t list

(** A4 alone (no session: hand-written programs on a [Device]). *)
val buffer_sizing : unit -> Dpc_util.Table.t

(** A6 alone (no session: hand-written programs on a [Device]). *)
val free_launch : unit -> Dpc_util.Table.t

(** Print A1–A6, then A7: the figs 7-10 suite collected on [session]
    under the [k20c], [k20c-deep] and [milo832] presets, a table of each
    app's fastest consolidated variant per preset, and one line per app
    whose winner differs from [k20c]'s.  Each table is followed by a
    blank line.
    @raise Failure if [k20c] accrues bank-conflict replays or MSHR
    stalls, if a deep preset accrues neither, or if no winner moves. *)
val print : Dpc_engine.Session.t -> unit
