(** Cross-run compiled-kernel cache.

    Two layers, with different sharing rules:

    - {b Program preps} (parse + {!Dpc.Transform} output + finalize) are
      immutable once finalized, so one mutex-guarded table serves every
      domain.  The build runs under the lock and the program is finalized
      {e before} publication, so concurrent readers only ever observe
      finished, read-only programs ({!Dpc_kir.Kernel.finalize} is
      idempotent — a later session's own finalize call is a no-op).
    - {b Lowered kernels} ({!Dpc_sim.Bytecode.ckernel}) carry mutable
      per-program scratch and must never execute concurrently in two
      domains, so each domain gets its own table per (cache, prep key)
      via [Domain.DLS].  Within a domain the table is handed to every
      session in turn: each kernel lowers at most once per domain per
      scenario family, instead of once per run.

    A cache may additionally be backed by a persistent on-disk
    {!Pstore}: an in-memory miss first tries to load the prepared
    program a previous process serialized under the same key (a
    {e disk hit} — the parse/transform/finalize pipeline is skipped,
    the program merely unmarshalled), and a fresh build is written back
    atomically so the next cold process starts warm.  Disk contents are
    an accelerator only: any stale, truncated or corrupt file degrades
    to an ordinary miss.  Every disk load also passes the store's
    [verify] function before use ([Session.verify_prep] re-lints the
    program and, for the bytecode tier, verifies its bytecode).

    Hit/miss counters are cache-level atomics; a "hit" means a run
    skipped the parse/transform/finalize pipeline by finding the
    program in memory, a "disk hit" that it was loaded from the
    persistent store instead of built. *)

module Harness = Dpc_apps.Harness

type stats = {
  hits : int;  (** in-memory: build pipeline skipped entirely *)
  misses : int;  (** built fresh (and persisted, when backed by disk) *)
  disk_hits : int;  (** loaded from the persistent store *)
  disk_writes : int;  (** fresh builds serialized to the store *)
}

let zero_stats = { hits = 0; misses = 0; disk_hits = 0; disk_writes = 0 }

type t = {
  id : int;  (** distinguishes cache instances inside the per-domain DLS *)
  lock : Mutex.t;
  preps : (string, Harness.prep) Hashtbl.t;
  persist : Pstore.t option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  disk_hits : int Atomic.t;
  disk_writes : int Atomic.t;
}

let next_id = Atomic.make 0

(** [create ()] builds an in-memory cache; [persist] additionally backs
    it with an on-disk store shared across processes. *)
let create ?persist () =
  {
    id = Atomic.fetch_and_add next_id 1;
    lock = Mutex.create ();
    preps = Hashtbl.create 32;
    persist;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    disk_hits = Atomic.make 0;
    disk_writes = Atomic.make 0;
  }

let persist t = t.persist

(* Per-domain ckernel tables, keyed by (cache id, prep key).  DLS state is
   born empty in every domain, so a table can never leak across domains. *)
let dls_tables :
    (int * string, Harness.ckernels) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let ckernels_for cache key =
  let tables = Domain.DLS.get dls_tables in
  match Hashtbl.find_opt tables (cache.id, key) with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 16 in
    Hashtbl.replace tables (cache.id, key) t;
    t

(* Miss path, under the cache lock: consult the persistent store first,
   build only when it cannot help, and write fresh builds back.  Disk
   I/O runs under the lock too — publication order must match the
   in-memory table, and the store's own writes are already atomic. *)
let build_or_load cache key tier cfgkey build =
  match
    Option.bind cache.persist (fun ps -> Pstore.load ps ~key ~tier ~cfgkey)
  with
  | Some p ->
    Atomic.incr cache.disk_hits;
    (* Marshalled after finalize, so the program round-trips finalized;
       re-finalizing is a no-op and keeps the invariant obvious. *)
    Dpc_kir.Kernel.Program.finalize p.Harness.p_prog;
    p
  | None ->
    Atomic.incr cache.misses;
    let p = build () in
    Dpc_kir.Kernel.Program.finalize p.Harness.p_prog;
    Option.iter
      (fun ps ->
        if Pstore.store ps ~key ~tier ~cfgkey p then
          Atomic.incr cache.disk_writes)
      cache.persist;
    p

(** The cache as a {!Harness.preparer}: memoizes the program build and
    seeds the session with this domain's compiled-kernel table.  The
    interpreter tier and device config are already folded into [key]
    (so the bytecode tier and the walker never share a prep entry or a
    ckernel table, and presets never share preps); the explicit
    [interp] and [cfgkey] tags additionally stamp persistent-store
    headers so on-disk files are self-describing. *)
let preparer cache : Harness.preparer =
 fun ~key ~interp ~cfgkey ~build ->
  let prep =
    Mutex.protect cache.lock (fun () ->
        match Hashtbl.find_opt cache.preps key with
        | Some p ->
          Atomic.incr cache.hits;
          p
        | None ->
          let p = build_or_load cache key interp cfgkey build in
          Hashtbl.replace cache.preps key p;
          p)
  in
  (prep, Some (ckernels_for cache key))

let stats cache =
  {
    hits = Atomic.get cache.hits;
    misses = Atomic.get cache.misses;
    disk_hits = Atomic.get cache.disk_hits;
    disk_writes = Atomic.get cache.disk_writes;
  }

(** Number of distinct programs cached. *)
let programs cache =
  Mutex.protect cache.lock (fun () -> Hashtbl.length cache.preps)
