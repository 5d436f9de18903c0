(** Aggregated run metrics — the simulator's equivalent of the Nvidia
    Visual Profiler counters the paper reports (Figs. 7-10). *)

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

let to_rows r =
  [
    ("cycles", Printf.sprintf "%.0f" r.cycles);
    ("time (ms)", Printf.sprintf "%.3f" r.time_ms);
    ("host launches", string_of_int r.host_launches);
    ("device launches", string_of_int r.device_launches);
    ("warp efficiency", Printf.sprintf "%.1f%%" (100.0 *. r.warp_efficiency));
    ("achieved occupancy", Printf.sprintf "%.1f%%" (100.0 *. r.occupancy));
    ("DRAM transactions", string_of_int r.dram_transactions);
    ("L2 hits", string_of_int r.l2_hits);
    ("bank-conflict replays", string_of_int r.bank_conflict_replays);
    ("MSHR stalls", string_of_int r.mshr_stalls);
    ("allocator calls", string_of_int r.alloc_calls);
    ("allocator cycles", string_of_int r.alloc_cycles);
    ("pool fallbacks", string_of_int r.pool_fallbacks);
    ("virtualized launches", string_of_int r.virtualized_launches);
    ("max pending kernels", string_of_int r.max_pending);
    ("swapped syncs", string_of_int r.swapped_syncs);
    ("max nesting depth", string_of_int r.max_depth);
    ("total grids", string_of_int r.total_grids);
  ]

let print ?(title = "run report") r =
  Printf.printf "--- %s ---\n" title;
  List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) (to_rows r)

(** Machine-readable view of the full report.  Keep in sync with the
    record: the completeness test checks every field's value shows up
    both here and in {!to_rows}. *)
let to_json r : Dpc_prof.Json.t =
  Dpc_prof.Json.Obj
    [
      ("cycles", Dpc_prof.Json.Float r.cycles);
      ("time_ms", Dpc_prof.Json.Float r.time_ms);
      ("host_launches", Dpc_prof.Json.Int r.host_launches);
      ("device_launches", Dpc_prof.Json.Int r.device_launches);
      ("warp_efficiency", Dpc_prof.Json.Float r.warp_efficiency);
      ("occupancy", Dpc_prof.Json.Float r.occupancy);
      ("dram_transactions", Dpc_prof.Json.Int r.dram_transactions);
      ("l2_hits", Dpc_prof.Json.Int r.l2_hits);
      ("bank_conflict_replays", Dpc_prof.Json.Int r.bank_conflict_replays);
      ("mshr_stalls", Dpc_prof.Json.Int r.mshr_stalls);
      ("alloc_calls", Dpc_prof.Json.Int r.alloc_calls);
      ("alloc_cycles", Dpc_prof.Json.Int r.alloc_cycles);
      ("pool_fallbacks", Dpc_prof.Json.Int r.pool_fallbacks);
      ("virtualized_launches", Dpc_prof.Json.Int r.virtualized_launches);
      ("max_pending", Dpc_prof.Json.Int r.max_pending);
      ("swapped_syncs", Dpc_prof.Json.Int r.swapped_syncs);
      ("max_depth", Dpc_prof.Json.Int r.max_depth);
      ("total_grids", Dpc_prof.Json.Int r.total_grids);
    ]
