(** The sweep-serving daemon core.

    One process owns one warm {!Dpc_engine.Session} (and therefore one
    {!Dpc_engine.Kcache}, optionally backed by the persistent on-disk
    store) and serves [dpc-serve-v1] requests from any number of
    clients over a Unix-domain socket.  Every client's programs hit the
    same cache: the first request pays each program family's build, all
    later requests — from any client — reuse it.

    {b Concurrency model.}  The server is a single-threaded [select]
    loop.  Socket work (accepting, reading requests, noticing
    disconnects) and scenario execution interleave at {e scenario}
    granularity: each loop iteration polls every socket, then executes
    at most one scenario of the front request and streams its outcome.
    Active requests take turns in a round-robin queue, so two
    concurrent sweeps make progress together instead of head-of-line
    blocking, and their clients see outcomes as they complete.  Nothing
    the simulator touches is shared across threads or domains, so no
    run can race another — the determinism story is the serial one.

    {b Isolation.}  A malformed or over-quota request is answered with
    an [error] event and the connection lives on; a failing scenario
    becomes an error-carrying outcome record (exactly as in
    {!Dpc_engine.Session.run_all}); a vanished client just gets its
    queued work dropped.  None of these kill the daemon.

    {b Timeouts.}  A request's wall-clock budget is checked between
    scenarios: when exceeded, the remaining scenarios are skipped and
    the terminal [done] event reports [timed_out] with the skip count.
    A single scenario is never preempted mid-simulation — the budget's
    granularity is one scenario.

    {b Shutdown.}  SIGINT/SIGTERM (via {!install_signal_handlers}) or a
    [shutdown] request put the server in draining mode: it stops
    accepting connections and new requests, finishes every queued
    scenario, flushes the streams, then closes sockets, unlinks the
    socket path and returns — so a supervisor sees exit 0 and clients
    see complete streams. *)

module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Kcache = Dpc_engine.Kcache
module Input_cache = Dpc_engine.Input_cache
module Pstore = Dpc_engine.Pstore
module Export = Dpc_experiments.Export
module Framing = Dpc_util.Framing

type config = {
  socket_path : string;
  cache_dir : string option;  (** persistent program cache directory *)
  max_scenarios : int;  (** per-request quota; [0] = unlimited *)
  max_timeout_s : float;
      (** cap (and default) for per-request budgets; [0.] = none *)
  strict_check : bool;
  verbose : bool;
}

let config ?(cache_dir = None) ?(max_scenarios = 10_000)
    ?(max_timeout_s = 0.) ?(strict_check = false) ?(verbose = false)
    socket_path =
  { socket_path; cache_dir; max_scenarios; max_timeout_s; strict_check;
    verbose }

type conn = {
  fd : Unix.file_descr;
  framing : Framing.t;
  cid : int;
  mutable alive : bool;
}

type job = {
  conn : conn;
  jid : string;
  total : int;
  mutable remaining : Scenario.t list;
  mutable seq : int;  (** scenarios already executed *)
  mutable failed : int;
  deadline : float option;
  started : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  session : Session.t;
  conns : (int, conn) Hashtbl.t;
  jobs : job Queue.t;
  mutable next_cid : int;
  mutable draining : bool;
  stop_flag : bool Atomic.t;  (** set by signal handlers *)
  started_at : float;
  (* stats *)
  mutable requests : int;
  mutable bad_requests : int;
  mutable completed : int;
  mutable timeouts : int;
  mutable outcomes : int;
  mutable failed_outcomes : int;
  mutable latency_total_s : float;
  mutable latency_max_s : float;
  mutable bank_replays : int;
      (** cumulative bank-conflict replays across served outcomes *)
  mutable mshr_stalls : int;
      (** cumulative MSHR stall cycles across served outcomes *)
}

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("dpcd: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* --- lifecycle ------------------------------------------------------------- *)

(* A stale socket file (previous daemon killed hard) must be removed
   before bind, but a *live* one must not be stolen: probe it with a
   connect first. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then
      failwith (Printf.sprintf "dpcd: %s already has a live server" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

(** Bind the socket and build the warm session; the returned server is
    ready for {!run} (possibly from another domain).
    @raise Failure when [socket_path] already has a live server. *)
let create (cfg : config) =
  (* A client that disconnects mid-stream must not kill the daemon with
     SIGPIPE; writes fail with EPIPE instead, which the write path
     treats as "connection gone". *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_socket_path cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  let session =
    Session.create ~jobs:1 ?persist:cfg.cache_dir
      ~strict_check:cfg.strict_check ()
  in
  {
    cfg;
    listen_fd;
    session;
    conns = Hashtbl.create 16;
    jobs = Queue.create ();
    next_cid = 0;
    draining = false;
    stop_flag = Atomic.make false;
    started_at = Unix.gettimeofday ();
    requests = 0;
    bad_requests = 0;
    completed = 0;
    timeouts = 0;
    outcomes = 0;
    failed_outcomes = 0;
    latency_total_s = 0.;
    latency_max_s = 0.;
    bank_replays = 0;
    mshr_stalls = 0;
  }

let session t = t.session

(** Ask the loop to drain and exit; safe from a signal handler. *)
let request_stop t = Atomic.set t.stop_flag true

(** Install SIGINT/SIGTERM handlers that {!request_stop} this server
    (process-global; the standalone daemon calls it, in-process
    embeddings usually should not). *)
let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* --- connection I/O -------------------------------------------------------- *)

let close_conn t (c : conn) =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.cid;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    log t "conn %d closed" c.cid
  end

(** Stream one event; a failed write means the client is gone and kills
    only that connection. *)
let send t (c : conn) (e : Protocol.event) =
  if c.alive then
    try Protocol.write_frame c.fd (Protocol.event_to_json e)
    with Unix.Unix_error _ | Sys_error _ -> close_conn t c

(* --- request handling ------------------------------------------------------ *)

let effective_deadline t ~started ~requested =
  let cap = t.cfg.max_timeout_s in
  let budget =
    match (requested, cap) with
    | Some r, c when c > 0. -> Some (Float.min r c)
    | Some r, _ -> Some r
    | None, c when c > 0. -> Some c
    | None, _ -> None
  in
  Option.map (fun b -> started +. Float.max 0. b) budget

let finish_job t (job : job) ~timed_out =
  let elapsed_s = Unix.gettimeofday () -. job.started in
  send t job.conn
    (Protocol.Done
       {
         id = job.jid;
         runs = job.seq;
         failed = job.failed;
         skipped = List.length job.remaining;
         timed_out;
         elapsed_s;
       });
  if timed_out then t.timeouts <- t.timeouts + 1 else t.completed <- t.completed + 1;
  t.latency_total_s <- t.latency_total_s +. elapsed_s;
  if elapsed_s > t.latency_max_s then t.latency_max_s <- elapsed_s;
  log t "req %s on conn %d: %s (%d run, %d failed, %d skipped, %.3fs)"
    job.jid job.conn.cid
    (if timed_out then "timed out" else "done")
    job.seq job.failed (List.length job.remaining) elapsed_s

let stats_json t =
  let cache = Session.cache_stats t.session in
  let inputs = Session.input_stats t.session in
  let completed_reqs = t.completed + t.timeouts in
  Json.Obj
    ([
       ("schema", Json.String "dpc-serve-stats-v1");
       ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
       ("requests", Json.Int t.requests);
       ("bad_requests", Json.Int t.bad_requests);
       ("completed_requests", Json.Int t.completed);
       ("timed_out_requests", Json.Int t.timeouts);
       ("outcomes", Json.Int t.outcomes);
       ("failed_outcomes", Json.Int t.failed_outcomes);
       ( "memmodel",
         Json.Obj
           [
             ("bank_conflict_replays", Json.Int t.bank_replays);
             ("mshr_stalls", Json.Int t.mshr_stalls);
           ] );
       ("active_connections", Json.Int (Hashtbl.length t.conns));
       ("queued_requests", Json.Int (Queue.length t.jobs));
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Int cache.Kcache.hits);
             ("misses", Json.Int cache.Kcache.misses);
             ("disk_hits", Json.Int cache.Kcache.disk_hits);
             ("disk_writes", Json.Int cache.Kcache.disk_writes);
             ("programs", Json.Int (Session.cached_programs t.session));
           ] );
       ( "inputs",
         Json.Obj
           [
             ("builds", Json.Int inputs.Input_cache.builds);
             ("hits", Json.Int inputs.Input_cache.hits);
             ("entries", Json.Int inputs.Input_cache.entries);
           ] );
       ("steals", Json.Int (Session.last_steals t.session));
       ("cost_observations", Json.Int (Session.observed_costs t.session));
       ( "latency",
         Json.Obj
           [
             ("count", Json.Int completed_reqs);
             ( "mean_s",
               Json.Float
                 (if completed_reqs = 0 then 0.
                  else t.latency_total_s /. float_of_int completed_reqs) );
             ("max_s", Json.Float t.latency_max_s);
           ] );
     ]
    @
    match Session.persist_stats t.session with
    | None -> []
    | Some p ->
      [
        ( "persist",
          Json.Obj
            [
              ("loads", Json.Int p.Pstore.loads);
              ("load_failures", Json.Int p.Pstore.load_failures);
              ("stores", Json.Int p.Pstore.stores);
              ("store_failures", Json.Int p.Pstore.store_failures);
              ("verify_rejects", Json.Int p.Pstore.verify_rejects);
            ] );
      ])

let handle_request t (c : conn) (line : string) =
  if String.trim line <> "" then
    match Protocol.request_of_string line with
    | Error msg ->
      t.bad_requests <- t.bad_requests + 1;
      send t c
        (Protocol.Error_event { id = ""; code = "bad-request"; message = msg })
    | Ok (Protocol.Ping { id }) -> send t c (Protocol.Pong { id })
    | Ok (Protocol.Stats { id }) ->
      send t c (Protocol.Stats_event { id; stats = stats_json t })
    | Ok (Protocol.Shutdown { id }) ->
      log t "shutdown requested on conn %d" c.cid;
      send t c (Protocol.Bye { id });
      t.draining <- true
    | Ok (Protocol.Sweep { id; scenarios; timeout_s }) ->
      if t.draining then
        send t c
          (Protocol.Error_event
             {
               id;
               code = "shutting-down";
               message = "daemon is draining; request refused";
             })
      else begin
        t.requests <- t.requests + 1;
        let n = List.length scenarios in
        if t.cfg.max_scenarios > 0 && n > t.cfg.max_scenarios then begin
          t.bad_requests <- t.bad_requests + 1;
          send t c
            (Protocol.Error_event
               {
                 id;
                 code = "quota";
                 message =
                   Printf.sprintf
                     "request has %d scenarios; this server accepts at most \
                      %d per request"
                     n t.cfg.max_scenarios;
               })
        end
        else begin
          let started = Unix.gettimeofday () in
          let job =
            {
              conn = c;
              jid = id;
              total = n;
              remaining = scenarios;
              seq = 0;
              failed = 0;
              deadline = effective_deadline t ~started ~requested:timeout_s;
              started;
            }
          in
          log t "req %s on conn %d: sweep of %d scenarios" id c.cid n;
          if n = 0 then finish_job t job ~timed_out:false
          else Queue.add job t.jobs
        end
      end

let read_conn t (c : conn) =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn t c
  | 0 -> close_conn t c
  | n ->
    List.iter (handle_request t c) (Framing.feed c.framing buf ~len:n);
    if Framing.overflowed c.framing then begin
      t.bad_requests <- t.bad_requests + 1;
      send t c
        (Protocol.Error_event
           {
             id = "";
             code = "frame-too-long";
             message =
               Printf.sprintf
                 "request line exceeds %d bytes without a newline; closing \
                  the connection"
                 Framing.max_frame;
           });
      log t "conn %d: frame over %d bytes" c.cid Framing.max_frame;
      close_conn t c
    end

let accept_conn t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    let c =
      { fd; framing = Framing.create (); cid = t.next_cid; alive = true }
    in
    t.next_cid <- t.next_cid + 1;
    Hashtbl.replace t.conns c.cid c;
    log t "conn %d accepted" c.cid

(* --- the executor ---------------------------------------------------------- *)

(* Run one scenario of the front job and stream its outcome; jobs of
   vanished connections are dropped wholesale (their work is cancelled),
   jobs past their deadline finish with [timed_out].  Re-queues the job
   when work remains, which is what round-robins concurrent requests. *)
let step_job t =
  match Queue.take_opt t.jobs with
  | None -> ()
  | Some job ->
    if not job.conn.alive then
      log t "req %s on conn %d: client gone, %d scenarios cancelled"
        job.jid job.conn.cid (List.length job.remaining)
    else if
      (* >=, not >: a zero budget must time out even when the clock has
         not ticked since the request was enqueued. *)
      match job.deadline with
      | Some d -> Unix.gettimeofday () >= d
      | None -> false
    then finish_job t job ~timed_out:true
    else begin
      match job.remaining with
      | [] -> finish_job t job ~timed_out:false
      | sc :: rest ->
        job.remaining <- rest;
        let o = Session.run_outcome t.session sc in
        t.outcomes <- t.outcomes + 1;
        (match o.Session.result with
        | Ok r ->
          t.bank_replays <-
            t.bank_replays + r.Dpc_sim.Metrics.bank_conflict_replays;
          t.mshr_stalls <- t.mshr_stalls + r.Dpc_sim.Metrics.mshr_stalls
        | Error _ ->
          t.failed_outcomes <- t.failed_outcomes + 1;
          job.failed <- job.failed + 1);
        send t job.conn
          (Protocol.Outcome
             {
               id = job.jid;
               seq = job.seq;
               total = job.total;
               elapsed_s = o.Session.elapsed_s;
               outcome = Export.outcome_json o;
             });
        job.seq <- job.seq + 1;
        if job.remaining = [] then finish_job t job ~timed_out:false
        else Queue.add job t.jobs
    end

(* --- the loop -------------------------------------------------------------- *)

(** Serve until a shutdown request or {!request_stop}, then drain queued
    work, close every socket and unlink the socket path.  Returns when
    fully drained. *)
let run t =
  log t "listening on %s%s" t.cfg.socket_path
    (match t.cfg.cache_dir with
    | Some d -> Printf.sprintf " (persistent cache: %s)" d
    | None -> "");
  let finished () = t.draining && Queue.is_empty t.jobs in
  while not (finished ()) do
    if Atomic.get t.stop_flag then t.draining <- true;
    if not (finished ()) then begin
      let conn_fds =
        Hashtbl.fold (fun _ c acc -> if c.alive then c.fd :: acc else acc)
          t.conns []
      in
      let read_set =
        if t.draining then conn_fds else t.listen_fd :: conn_fds
      in
      (* Busy only when there is queued work; otherwise park in select
         briefly so signal-driven stops are still noticed promptly. *)
      let timeout = if Queue.is_empty t.jobs then 0.2 else 0. in
      (match Unix.select read_set [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_conn t
            else
              match
                Hashtbl.fold
                  (fun _ c acc -> if c.fd = fd then Some c else acc)
                  t.conns None
              with
              | Some c -> read_conn t c
              | None -> ())
          ready);
      step_job t
    end
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  log t "drained; bye"
