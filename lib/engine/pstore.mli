(** Persistent on-disk store for prepared programs: the cross-process
    side of the kernel cache.

    One file per prepared program under the store directory,
    content-addressed by the caller's key (the harness prep-key MD5
    digest, which folds in the interpreter tier and device config) with
    a format-version header (format tag + OCaml version + interpreter
    tier + device-config digest + payload digest + length) — a load for
    one tier or preset never accepts a file written for another, so
    mixed cache directories degrade to an ordinary re-prepare.  Writes
    are atomic (temp file +
    [Sys.rename]), so concurrent daemon/CLI writers never clobber each
    other and readers never observe partial files.  Every failure mode
    — stale format, truncation, corruption, I/O error — degrades to a
    miss; the store accelerates cold starts but is never a correctness
    dependency. *)

type t

(** Counters since {!create}; loads/stores that degraded to a miss or a
    no-op are the [_failures].  [verify_rejects] counts files that
    decoded cleanly but whose payload the {!create} [verify] hook
    refused. *)
type stats = {
  loads : int;
  load_failures : int;
  stores : int;
  store_failures : int;
  verify_rejects : int;
}

(** The on-disk format tag ([dpc-kcache-v3]); bump when the serialized
    KIR shape or the header layout changes. *)
val format_version : string

(** Open the store rooted at the given directory, creating it (parents
    included) when absent.  [verify] vets every successfully decoded
    payload before {!load} hands it out: [Error reason] (or an
    exception) rejects the file, counts a [verify_rejects], prints a
    diagnostic to stderr and degrades to an ordinary miss, so a corrupt,
    semantically stale or hand-edited [.prep] re-prepares instead of
    executing.  The header digest only guards accidental corruption;
    this hook is the trust boundary for everything past it.
    @raise Unix.Unix_error when the directory cannot be created. *)
val create :
  ?verify:(tier:string -> Dpc_apps.Harness.prep -> (unit, string) result) ->
  string ->
  t

val stats : t -> stats

(** Serialize a prepared program under [key] for interpreter tier [tier]
    (a {!Dpc_sim.Interp.mode_to_string} tag) built under device config
    [cfgkey] (a {!Dpc_apps.Harness.cfg_digest} hex digest); both are
    stamped into the header.  [false] on any failure (never raises). *)
val store :
  t -> key:string -> tier:string -> cfgkey:string ->
  Dpc_apps.Harness.prep -> bool

(** Load the prepared program stored under [key] for interpreter tier
    [tier] and device config [cfgkey]; [None] when absent, stale,
    written for another tier or preset, corrupt or unreadable (never
    raises). *)
val load :
  t -> key:string -> tier:string -> cfgkey:string ->
  Dpc_apps.Harness.prep option
