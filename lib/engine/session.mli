(** Scenario execution sessions: the one way every front end (suite
    figures, CLI flags, sweep files, benchmarks, the serve daemon) runs
    apps.

    A session owns a {!Kcache}, an {!Input_cache} and a worker pool.
    Runs differing only in scale, seed or allocator share one program
    build (and one bytecode lowering per kernel per domain); runs of
    one app on the same data (scale, seed, data extras) share one
    dataset and CPU reference.  Every run still gets a fresh device, so
    results are byte-identical to uncached runs.  With
    [persist] the cache is additionally backed by an on-disk store
    ({!Pstore}), so cold processes start warm. *)

type outcome = {
  scenario : Scenario.t;
  result : (Dpc_sim.Metrics.report, exn) result;
  elapsed_s : float;  (** wall clock of this run, preparation included *)
}

type t

(** [jobs] bounds batch parallelism (default 1); [sched] picks the
    batch pool's dispatch scheduler (default [Shared]; [Steal] claims
    scenarios longest-first by {!Scenario.cost_estimate} — outcomes are
    identical, only wall-clock scheduling changes); [cache:false]
    disables program and input reuse (every run builds fresh); [persist]
    backs the cache with the on-disk store rooted at that directory
    (created when absent; ignored with [cache:false]); [verbose] prints a
    line per finished scenario (writes are serialized across worker
    domains); [strict_check] vets every
    program the session builds ({!Dpc_check.Strict.vet}) before it is
    cached or run, so a failing check is that scenario's
    {!Dpc_check.Check.Check_error}. *)
val create :
  ?jobs:int ->
  ?sched:Dpc_util.Pool.sched ->
  ?cache:bool ->
  ?persist:string ->
  ?verbose:bool ->
  ?strict_check:bool ->
  unit ->
  t

val sched : t -> Dpc_util.Pool.sched

(** Always [0]: no task is ever stolen, since both pool schedulers claim
    from one shared counter.  It stays only because the benchmark's
    [pool.steals] metric reads it (the serve daemon's [steals] stat
    likewise). *)
val last_steals : t -> int

(** Zero for cacheless sessions. *)
val cache_stats : t -> Kcache.stats

(** On-disk store counters; [None] without [persist] (or with
    [cache:false]). *)
val persist_stats : t -> Pstore.stats option

(** Distinct program families currently in the in-memory cache. *)
val cached_programs : t -> int

(** Input-cache counters: datasets built, runs that reused one, and apps
    with one cached.  Zero for cacheless sessions. *)
val input_stats : t -> Input_cache.stats

(** Apps whose cached input no longer equals a fresh build ({!Input_cache.changed});
    always empty for cacheless sessions. *)
val changed_inputs : t -> string list

(** Execute one scenario, capturing its error and wall clock; [inspect]
    is as for {!run_all}. *)
val run_outcome :
  ?inspect:(Scenario.t -> Dpc_sim.Device.t -> unit) ->
  t ->
  Scenario.t ->
  outcome

(** Execute one scenario; exceptions propagate. *)
val run : t -> Scenario.t -> Dpc_sim.Metrics.report

(** Execute a batch across the session's pool.  Outcomes keep submission
    order; a failing scenario yields [Error] without aborting its
    siblings.  [inspect] runs after each scenario's launches with its
    device, inside the worker that ran it: the one hook for profiling
    capture (a failing hook fails that scenario). *)
val run_all :
  ?inspect:(Scenario.t -> Dpc_sim.Device.t -> unit) ->
  t ->
  Scenario.t list ->
  outcome list

(** Unwrap an outcome, re-raising a captured failure. *)
val report : outcome -> Dpc_sim.Metrics.report
