(** Domain-based worker pool for independent simulation fan-out.

    The experiment harness replays hundreds to thousands of fully
    independent simulations (app x variant x allocator/policy cells, and
    1000-scenario sweeps); this pool runs them across OCaml 5 domains.
    Results keep the submission order, so a table assembled from
    [parallel_map] output is byte-identical to the serial run regardless
    of the worker count {e and} of the scheduler.

    Both schedulers run one claim loop: workers take positions from one
    shared atomic counter.  They differ only in the order the positions
    map to:

    - {!Shared}: submission order.  Cheap and fair for uniform tasks,
      but the submission order decides when expensive tasks start — a
      sweep that lists its big runs last parks them behind every small
      one, and the last-claimed big task straggles alone.
    - {!Steal}: longest-first (LPT) by a caller-supplied cost estimate,
      so expensive tasks start first and the cheap ones fill the tail.
      No task is ever stolen: the name stays because callers and
      command lines select this scheduler by it.

    Both schedulers run the same task set to completion and return
    results in submission order; only wall-clock scheduling differs.

    Tasks must be self-contained: each should build its own
    [Dpc_gpu.Memory] / simulator instance and derive any randomness from
    an explicit per-task seed (or an {!Rng.split} stream), never from
    state shared with other tasks. *)

type t

(** Dispatch scheduler: claims in submission order, or longest-first by
    cost estimate (see the module description). *)
type sched = Shared | Steal

val sched_to_string : sched -> string

(** Parses ["shared"] / ["steal"] (case-insensitive).
    @raise Invalid_argument otherwise. *)
val sched_of_string : string -> sched

(** [create ~jobs ()] returns a pool running at most [jobs] tasks
    concurrently.  [jobs = 1] is the serial path (no domains are
    spawned); raises [Invalid_argument] if [jobs < 1].  [sched] picks the
    dispatch scheduler (default {!Shared}). *)
val create : ?sched:sched -> jobs:int -> unit -> t

val sched : t -> sched

(** [Domain.recommended_domain_count () - 1], clamped to at least 1:
    leave one core for the submitting domain's own work. *)
val default_jobs : unit -> int

(** [parallel_map t f xs] computes [List.map f xs] using up to [jobs]
    domains (the calling domain participates as a worker).  Results are
    returned in submission order.

    [cost] estimates each task's relative duration; the {!Steal}
    scheduler claims tasks longest-first by it (ties keep submission
    order).  The {!Shared} scheduler and the serial path
    ignore it.  Estimates only steer scheduling — they never change
    results.

    {b Failure.}  If any task raises, workers stop claiming further tasks
    (tasks already claimed run to completion), and the error of the
    {e lowest-indexed failing task} is re-raised with its backtrace.
    This is deterministic even when several tasks fail concurrently: any
    task below the lowest recorded failure that was never claimed is
    executed (serially, in the submitting domain) before reporting, so
    the reported index never depends on claim timing.  Like the serial
    path, every task below the reported one has run; unlike the serial
    path, some tasks above it may also have run. *)
val parallel_map : ?cost:('a -> float) -> t -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_iter t f xs] is [parallel_map] for side-effecting tasks;
    same ordering and exception guarantees. *)
val parallel_iter : t -> ('a -> unit) -> 'a list -> unit
