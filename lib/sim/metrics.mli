(** Aggregated run metrics — the simulator's equivalent of the Nvidia
    Visual Profiler counters the paper reports (Figs. 7-10).

    A report is a flat record of scalars: identical runs produce
    structurally equal reports, which the differential and engine
    determinism tests rely on. *)

type report = {
  cycles : float;  (** end-to-end simulated device cycles *)
  time_ms : float;
  host_launches : int;
  device_launches : int;  (** child kernel invocations (Fig. 8 labels) *)
  warp_efficiency : float;  (** Fig. 8 *)
  occupancy : float;  (** achieved SMX occupancy (Fig. 9) *)
  dram_transactions : int;  (** read+write DRAM transactions (Fig. 10) *)
  l2_hits : int;
  bank_conflict_replays : int;  (** shared-memory replays (deep presets) *)
  mshr_stalls : int;  (** MSHR-full stall transactions (deep presets) *)
  alloc_calls : int;
  alloc_cycles : int;
  pool_fallbacks : int;
  virtualized_launches : int;
  max_pending : int;
  swapped_syncs : int;
  max_depth : int;
  total_grids : int;
}

(** Human-readable [(label, value)] rows, in presentation order. *)
val to_rows : report -> (string * string) list

val print : ?title:string -> report -> unit

(** Machine-readable view of the full report; kept field-for-field in
    sync with the record (checked by the prof test suite). *)
val to_json : report -> Dpc_prof.Json.t
