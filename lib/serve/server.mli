(** The sweep-serving daemon core: one warm {!Dpc_engine.Session} (and
    optional persistent on-disk program cache) behind a Unix-domain
    socket speaking [dpc-serve-v1] ({!Protocol}).

    Single-threaded [select] loop; concurrent requests interleave at
    scenario granularity (round-robin), so all clients see outcomes
    stream as they complete.  Per-request failures (bad JSON, quota,
    scenario errors, vanished clients) never kill the daemon. *)

type config = {
  socket_path : string;
  cache_dir : string option;
      (** persistent program cache directory; [None] = in-memory only *)
  max_scenarios : int;  (** per-request quota; [0] = unlimited *)
  max_timeout_s : float;
      (** cap (and default) for per-request wall-clock budgets;
          [0.] = none.  Budgets are enforced between scenarios: a
          scenario is never preempted mid-simulation. *)
  strict_check : bool;
      (** vet every program the session builds (see
          {!Dpc_engine.Session.create}) *)
  verbose : bool;  (** log connections/requests to stderr *)
}

val config :
  ?cache_dir:string option ->
  ?max_scenarios:int ->
  ?max_timeout_s:float ->
  ?strict_check:bool ->
  ?verbose:bool ->
  string ->
  config

type t

(** Bind the socket and build the warm session; the returned server is
    ready for {!run} (possibly from another domain).  Replaces a stale
    socket file, but refuses to steal a live one.  Also ignores SIGPIPE
    process-wide so vanished clients surface as [EPIPE].
    @raise Failure when [socket_path] already has a live server.
    @raise Unix.Unix_error when the socket cannot be bound. *)
val create : config -> t

(** Ask the loop to drain and exit; safe from a signal handler or
    another domain. *)
val request_stop : t -> unit

(** Install SIGINT/SIGTERM handlers that {!request_stop} this server.
    Process-global: the standalone daemon calls it; in-process
    embeddings (tests, benchmarks) should not. *)
val install_signal_handlers : t -> unit

(** Serve until a [shutdown] request or {!request_stop}, then drain all
    queued work (clients see complete streams), close every socket and
    unlink the socket path.  Returns when fully drained. *)
val run : t -> unit
