(** Per-kernel profiles — the simulator's answer to nvprof's "GPU
    summary" (the numbers the paper quotes for Figs. 7-10).

    Folds an event stream into one row per (kernel name x nesting
    depth): launch count, total/mean/max grid duration, time spent
    waiting in the launch queue, warp execution efficiency, DRAM
    transactions, and allocator activity.  Grid duration is measured
    from the first block becoming resident to grid completion (the
    profiler's kernel-duration definition); queue wait is from entering
    the pending pool to being picked by the grid dispatcher. *)

type row = {
  kernel : string;
  depth : int;
  launches : int;
  total_cycles : float;
  mean_cycles : float;
  max_cycles : float;
  queue_wait : float;  (** summed enqueue-to-dispatch cycles *)
  warp_efficiency : float;
  dram_transactions : int;
  l2_hits : int;
  bank_replays : int;  (** shared-memory bank-conflict replays *)
  mshr_stalls : int;  (** MSHR-full stall transactions *)
  alloc_calls : int;
  alloc_fallbacks : int;
}

(* Per-grid lifecycle scratch, keyed by grid id. *)
type grid_acc = {
  mutable enqueued_at : float;
  mutable launched_at : float;
  mutable started_at : float;
}

type acc = {
  key : string * int;
  mutable launches : int;
  mutable total : float;
  mutable max : float;
  mutable wait : float;
  mutable issue : int;
  mutable weighted : float;
  mutable dram : int;
  mutable l2 : int;
  mutable bank_rp : int;
  mutable mshr_st : int;
  mutable allocs : int;
  mutable fallbacks : int;
}

let of_events (events : Event.t array) : row list =
  let grids : (int, grid_acc) Hashtbl.t = Hashtbl.create 64 in
  let kernels : (string * int, acc) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let grid gid =
    match Hashtbl.find_opt grids gid with
    | Some g -> g
    | None ->
      let g = { enqueued_at = 0.0; launched_at = 0.0; started_at = 0.0 } in
      Hashtbl.add grids gid g;
      g
  in
  let kacc (ev : Event.t) =
    let key = (ev.Event.kernel, ev.Event.depth) in
    match Hashtbl.find_opt kernels key with
    | Some a -> a
    | None ->
      let a =
        { key; launches = 0; total = 0.0; max = 0.0; wait = 0.0; issue = 0;
          weighted = 0.0; dram = 0; l2 = 0; bank_rp = 0; mshr_st = 0;
          allocs = 0; fallbacks = 0 }
      in
      Hashtbl.add kernels key a;
      order := key :: !order;
      a
  in
  Array.iter
    (fun (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Grid_enqueued _ -> (grid ev.Event.gid).enqueued_at <- ev.Event.cycles
      | Event.Grid_launched _ ->
        let g = grid ev.Event.gid in
        g.launched_at <- ev.Event.cycles;
        g.started_at <- ev.Event.cycles;
        let a = kacc ev in
        a.launches <- a.launches + 1;
        a.wait <- a.wait +. (g.launched_at -. g.enqueued_at)
      | Event.Grid_started -> (grid ev.Event.gid).started_at <- ev.Event.cycles
      | Event.Grid_completed
          { issue_cycles; weighted_active; dram_transactions; l2_hits;
            bank_replays; mshr_stalls; _ } ->
        let g = grid ev.Event.gid in
        let a = kacc ev in
        let dur = ev.Event.cycles -. g.started_at in
        a.total <- a.total +. dur;
        if dur > a.max then a.max <- dur;
        a.issue <- a.issue + issue_cycles;
        a.weighted <- a.weighted +. weighted_active;
        a.dram <- a.dram + dram_transactions;
        a.l2 <- a.l2 + l2_hits;
        a.bank_rp <- a.bank_rp + bank_replays;
        a.mshr_st <- a.mshr_st + mshr_stalls
      | Event.Alloc { calls; fallbacks; _ } ->
        let a = kacc ev in
        a.allocs <- a.allocs + calls;
        a.fallbacks <- a.fallbacks + fallbacks
      | Event.Block_placed _ | Event.Block_removed _ | Event.Swap_out _
      | Event.Swap_in _ | Event.Pool_high_water _ | Event.Pool_virtualized _
        -> ())
    events;
  List.rev_map
    (fun key ->
      let a = Hashtbl.find kernels key in
      let kernel, depth = a.key in
      {
        kernel;
        depth;
        launches = a.launches;
        total_cycles = a.total;
        mean_cycles =
          (if a.launches = 0 then 0.0
           else a.total /. Float.of_int a.launches);
        max_cycles = a.max;
        queue_wait = a.wait;
        warp_efficiency =
          (if a.issue = 0 then 1.0 else a.weighted /. Float.of_int a.issue);
        dram_transactions = a.dram;
        l2_hits = a.l2;
        bank_replays = a.bank_rp;
        mshr_stalls = a.mshr_st;
        alloc_calls = a.allocs;
        alloc_fallbacks = a.fallbacks;
      })
    !order
  |> List.sort (fun r1 r2 ->
         match compare r1.depth r2.depth with
         | 0 -> compare r1.kernel r2.kernel
         | c -> c)

(* --- rendering ----------------------------------------------------------- *)

let row_to_json r =
  Json.Obj
    [
      ("kernel", Json.String r.kernel);
      ("depth", Json.Int r.depth);
      ("launches", Json.Int r.launches);
      ("total_cycles", Json.Float r.total_cycles);
      ("mean_cycles", Json.Float r.mean_cycles);
      ("max_cycles", Json.Float r.max_cycles);
      ("queue_wait", Json.Float r.queue_wait);
      ("warp_efficiency", Json.Float r.warp_efficiency);
      ("dram_transactions", Json.Int r.dram_transactions);
      ("l2_hits", Json.Int r.l2_hits);
      ("bank_replays", Json.Int r.bank_replays);
      ("mshr_stalls", Json.Int r.mshr_stalls);
      ("alloc_calls", Json.Int r.alloc_calls);
      ("alloc_fallbacks", Json.Int r.alloc_fallbacks);
    ]

let to_json rows = Json.List (List.map row_to_json rows)
