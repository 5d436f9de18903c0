(** Cross-run compiled-kernel cache.

    Caches the run-independent build products of app variants — parsed
    programs, {!Dpc.Transform} outputs, finalization — in one shared,
    mutex-guarded table (programs are finalized before publication and
    read-only afterwards), and lowered bytecode kernels in per-domain
    tables (lowered programs carry mutable scratch and must never run
    concurrently in two domains; see {!Dpc_sim.Interp.create_session}).

    A cache may be backed by a persistent on-disk {!Pstore}: in-memory
    misses first try the store (a {e disk hit} skips the build pipeline
    and merely unmarshals), and fresh builds are written back atomically
    so cold processes start warm.  Stale or corrupt store files degrade
    to ordinary misses. *)

type t

type stats = {
  hits : int;  (** in-memory: build pipeline skipped entirely *)
  misses : int;  (** built fresh (and persisted, when backed by disk) *)
  disk_hits : int;  (** loaded from the persistent store *)
  disk_writes : int;  (** fresh builds serialized to the store *)
}

(** All counters zero — what a cacheless session reports. *)
val zero_stats : stats

(** [create ()] builds an in-memory cache; [persist] additionally backs
    it with an on-disk store shared across processes. *)
val create : ?persist:Pstore.t -> unit -> t

(** The backing store, when one was given. *)
val persist : t -> Pstore.t option

(** The cache as a {!Dpc_apps.Harness.preparer}: memoizes program builds
    by key and seeds each session with the calling domain's
    compiled-kernel table for that key. *)
val preparer : t -> Dpc_apps.Harness.preparer

(** A hit means a run skipped the parse/transform/finalize pipeline. *)
val stats : t -> stats

(** Number of distinct programs cached. *)
val programs : t -> int
