(** Session-level cache of app inputs: each app's generated dataset and
    everything derived from it, the CPU reference included (see
    {!Dpc_apps.Harness.input_cache}).

    The paper's evaluation runs all five variants of an app on one
    input, and a sweep runs many allocators and presets on it too; with
    this cache a session builds each input once instead of once per run.

    The cache holds at most one entry per app: a request under a new key
    (scale, seed, data-relevant extras) replaces the app's entry, so a
    stream of fresh-seed requests keeps memory bounded by the number of
    apps.  Each app's slot has its own lock, held while building, so a
    key is built exactly once even when several domains ask for it at
    the same time.  Entries are shared read-only. *)

type t

type stats = {
  builds : int;  (** inputs built (cache misses) *)
  hits : int;  (** runs served an already-built input *)
  entries : int;  (** apps with an input currently cached *)
}

(** All counters zero: what a cacheless session reports. *)
val zero_stats : stats

val create : unit -> t

(** The cache as the harness-level hook runs consult. *)
val hook : t -> Dpc_apps.Harness.input_cache

val stats : t -> stats

(** Apps whose cached input no longer equals a fresh build of the same
    key: a non-empty answer means some run wrote to a shared input. *)
val changed : t -> string list
