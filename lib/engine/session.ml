(** Scenario execution sessions.

    A session owns a {!Kcache}, a worker-pool width and a pool scheduler,
    and executes {!Scenario.t} values through the registry's spec-driven
    app entry points.  Runs that differ only in scale, seed or allocator
    share one parse/transform/finalize of their programs (and, per
    domain, one bytecode lowering per kernel); every run still gets a
    fresh device, memory and allocator, so results are byte-identical to
    uncached runs — which the determinism tests assert.  With [persist]
    the cache is additionally backed by an on-disk store, so even a
    cold process reuses programs an earlier process prepared.

    {!run_all} is the batch executor the experiment suites sit on: it
    fans the scenario list over a {!Dpc_util.Pool} and returns per-
    scenario outcomes in submission order, capturing per-run exceptions
    (e.g. an infeasible explicit configuration in an exhaustive sweep)
    instead of failing the batch.  Under the {!Dpc_util.Pool.Steal}
    scheduler the pool claims scenarios longest-first by the static
    {!Scenario.cost_estimate} model; the order only changes wall-clock
    execution, never outcomes. *)

module Registry = Dpc_apps.Registry
module Metrics = Dpc_sim.Metrics
module Pool = Dpc_util.Pool

type outcome = {
  scenario : Scenario.t;
  result : (Metrics.report, exn) result;
  elapsed_s : float;  (** wall clock of this run, preparation included *)
}

(* The persistent store's payload verifier: the header digest already
   guards accidental corruption, so what reaches this point decoded
   cleanly — re-lint the KIR and, for the bytecode tier, statically
   verify every lowered instruction stream, so a semantically stale or
   hand-edited .prep re-prepares instead of executing.  Exceptions out
   of the checkers (Marshal can produce arbitrarily mangled values) are
   rejects too, handled inside Pstore. *)
let verify_prep ~tier (p : Dpc_apps.Harness.prep) : (unit, string) result =
  match Dpc_check.Tv.lint_errors p.Dpc_apps.Harness.p_prog with
  | d :: _ -> Error (Dpc_check.Diag.to_string d)
  | [] -> (
    if tier <> "bytecode" then Ok ()
    else
      match Dpc_check.Bcverify.check p.Dpc_apps.Harness.p_prog with
      | [] -> Ok ()
      | d :: _ -> Error (Dpc_check.Diag.to_string d))

type t = {
  cache : Kcache.t option;
  inputs : Input_cache.t option;
  pool : Pool.t;
  verbose : bool;
  verbose_lock : Mutex.t;
  strict_check : bool;
  inspect : (Scenario.t -> Dpc_sim.Device.t -> unit) option;
}

(** [create ()] builds a session.  [jobs] bounds batch parallelism
    (default 1: serial) and [sched] picks the pool's dispatch scheduler
    (default [Shared]); [cache:false] disables program and input reuse
    (every run builds fresh — the baseline the cache benchmark compares
    against);
    [persist] backs the cache with the on-disk store rooted at that
    directory (created when absent; ignored with [cache:false]);
    [inspect] runs after each scenario's launches with its device (for
    profiling capture); [strict_check] installs the static verifier's
    strict finalize hook around every run — including, per worker domain,
    around each task of a batch — so every program a batch builds is
    vetted. *)
let create ?(jobs = 1) ?(sched = Pool.Shared) ?(cache = true) ?persist
    ?(verbose = false) ?inspect ?(strict_check = false) () =
  {
    cache =
      (if cache then
         Some
           (Kcache.create
              ?persist:
                (Option.map (Pstore.create ~verify:verify_prep) persist)
              ())
       else None);
    inputs = (if cache then Some (Input_cache.create ()) else None);
    pool = Pool.create ~sched ~jobs ();
    verbose;
    verbose_lock = Mutex.create ();
    strict_check;
    inspect;
  }

let sched t = Pool.sched t.pool
let last_steals _ = 0

let cache_stats t =
  match t.cache with Some c -> Kcache.stats c | None -> Kcache.zero_stats

let persist_stats t =
  Option.bind t.cache (fun c -> Option.map Pstore.stats (Kcache.persist c))

let cached_programs t =
  match t.cache with Some c -> Kcache.programs c | None -> 0

let input_stats t =
  match t.inputs with
  | Some c -> Input_cache.stats c
  | None -> Input_cache.zero_stats

let changed_inputs t =
  match t.inputs with Some c -> Input_cache.changed c | None -> []

(* Under strict mode every prepared program additionally gets its
   bytecode streams statically verified at prepare time (fresh builds
   and cache loads alike); a cache-less strict session still verifies
   through the pass-through preparer. *)
let preparer_of t : Dpc_apps.Harness.preparer option =
  let base =
    match t.cache with
    | Some c -> Some (Kcache.preparer c)
    | None -> if t.strict_check then Some Dpc_apps.Harness.no_cache else None
  in
  match base with
  | Some base when t.strict_check ->
    Some
      (fun ~key ~interp ~cfgkey ~build ->
        let ((p, _) as r) = base ~key ~interp ~cfgkey ~build in
        if interp = "bytecode" then
          Dpc_check.Strict.verify_bytecode p.Dpc_apps.Harness.p_prog;
        r)
  | _ -> base

let run_one t (sc : Scenario.t) =
  let entry = Registry.find sc.Scenario.app in
  let preparer = preparer_of t in
  let inspect = Option.map (fun f -> f sc) t.inspect in
  let inputs = Option.map Input_cache.hook t.inputs in
  let spec = Scenario.to_spec ?preparer ?inputs ?inspect sc in
  entry.Registry.run_spec spec

(* The strict hooks (finalize linter + transform translation validation)
   are domain-local, so they must be (re)installed in whichever domain
   actually builds the program: around the whole call for a single run,
   around each task for a batch (tasks execute on pool worker domains
   the submitting domain's hooks never reach). *)
let wrap_strict t f =
  if t.strict_check then Dpc_check.Strict.with_strict f else f ()

(** Execute one scenario, capturing its error and wall clock.  This is
    the unit both {!run_all} and the serve daemon's streaming executor
    are built on. *)
let run_outcome t (sc : Scenario.t) : outcome =
  let t0 = Unix.gettimeofday () in
  let result =
    try Ok (wrap_strict t (fun () -> run_one t sc)) with e -> Error e
  in
  { scenario = sc; result; elapsed_s = Unix.gettimeofday () -. t0 }

(** Execute one scenario; exceptions propagate. *)
let run t sc =
  let o = run_outcome t sc in
  match o.result with Ok r -> r | Error e -> raise e

(** Execute a batch across the session's pool.  Outcomes keep submission
    order; a failing scenario yields [Error] without aborting its
    siblings. *)
let run_all t (scenarios : Scenario.t list) : outcome list =
  let work sc =
    let o = run_outcome t sc in
    if t.verbose then begin
      (* Progress goes to stderr: stdout carries the figure tables.  One
         pre-formatted line per outcome, written under a lock: worker
         domains report concurrently, and an unserialized Printf
         interleaves *within* lines (the format engine emits piece by
         piece, and the channel lock only covers each piece). *)
      let line =
        match o.result with
        | Ok r ->
          Printf.sprintf "engine: %-24s %12.0f cycles\n" (Scenario.label sc)
            r.Metrics.cycles
        | Error e ->
          Printf.sprintf "engine: %-24s failed: %s\n" (Scenario.label sc)
            (Printexc.to_string e)
      in
      Mutex.protect t.verbose_lock (fun () ->
          output_string stderr line;
          flush stderr)
    end;
    o
  in
  Pool.parallel_map ~cost:Scenario.cost_estimate t.pool work scenarios

(** [report outcome] unwraps, re-raising a captured failure. *)
let report (o : outcome) =
  match o.result with Ok r -> r | Error e -> raise e
