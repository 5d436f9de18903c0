(** Client side of [dpc-serve-v1]: connect to a running daemon, submit
    sweeps and read the streamed responses.

    The client is deliberately synchronous — one request in flight per
    connection, blocking reads — because that is the shape every current
    consumer (the CLI, the CI smoke job, the benchmark harness) wants.
    Concurrency comes from opening several connections; the server
    interleaves them.

    Outcome payloads are collected verbatim, so {!sweep_snapshot} can
    re-assemble a [dpc-sweep-v1] document whose records are byte-wise
    the ones the server's own export would produce. *)

module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Framing = Dpc_util.Framing

type t = {
  fd : Unix.file_descr;
  framing : Framing.t;
  mutable queued : string list;  (** frames read but not yet consumed *)
  mutable next_id : int;
  mutable closed : bool;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; framing = Framing.create (); queued = []; next_id = 0; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let fresh_id t =
  let id = Printf.sprintf "r%d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

(* Blocking read of the next complete frame. *)
let rec read_frame t : (string, string) result =
  match t.queued with
  | line :: rest ->
    t.queued <- rest;
    Ok line
  | [] ->
    if t.closed then Error "connection closed"
    else begin
      let buf = Bytes.create 65536 in
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_frame t
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close t;
        Error "server closed the connection"
      | 0 ->
        close t;
        Error "server closed the connection"
      | n ->
        t.queued <- Framing.feed t.framing buf ~len:n;
        if t.queued = [] && Framing.overflowed t.framing then begin
          close t;
          Error "server sent a frame over the size limit"
        end
        else read_frame t
    end

let read_event t : (Protocol.event, string) result =
  match read_frame t with
  | Error _ as e -> e
  | Ok line -> Protocol.event_of_string line

let send t (r : Protocol.request) =
  if t.closed then invalid_arg "Dpc_serve.Client: connection is closed";
  try Protocol.write_frame t.fd (Protocol.request_to_json r)
  with Unix.Unix_error _ ->
    close t;
    failwith "Dpc_serve.Client: server closed the connection"

(* --- verbs ----------------------------------------------------------------- *)

type sweep_result = {
  runs : int;
  failed : int;
  skipped : int;
  timed_out : bool;
  elapsed_s : float;  (** whole-request wall clock on the server *)
  outcomes : Json.t list;
      (** the streamed [dpc-sweep-v1] records, in submission order *)
}

(** Submit a sweep and block until its terminal event.  [on_event] sees
    every raw event as it arrives (for progress displays); outcome
    payloads are also collected into the result.  [Error] carries the
    server's refusal (quota, draining, bad request) or a transport
    failure. *)
let sweep ?timeout_s ?(on_event = fun (_ : Protocol.event) -> ()) t scenarios :
    (sweep_result, string) result =
  let id = fresh_id t in
  send t (Protocol.Sweep { id; scenarios; timeout_s });
  let rec collect acc =
    match read_event t with
    | Error e -> Error e
    | Ok ev -> (
      on_event ev;
      match ev with
      | Protocol.Outcome o when o.id = id -> collect (o.outcome :: acc)
      | Protocol.Done d when d.id = id ->
        Ok
          {
            runs = d.runs;
            failed = d.failed;
            skipped = d.skipped;
            timed_out = d.timed_out;
            elapsed_s = d.elapsed_s;
            outcomes = List.rev acc;
          }
      | Protocol.Error_event e when e.id = id ->
        Error (Printf.sprintf "%s: %s" e.code e.message)
      | _ -> collect acc)
  in
  collect []

(** Re-assemble a [dpc-sweep-v1] snapshot from a sweep's streamed
    records; identical to {!Dpc_experiments.Export.sweep_json} output
    for the same scenarios, modulo the [source] tag. *)
let sweep_snapshot (r : sweep_result) =
  Json.Obj
    [
      ("schema", Json.String "dpc-sweep-v1");
      ("source", Json.String "dpc-client");
      ("runs", Json.List r.outcomes);
    ]

let expecting what = function
  | Error e -> Error e
  | Ok (Protocol.Error_event e) ->
    Error (Printf.sprintf "%s: %s" e.code e.message)
  | Ok _ -> Error (Printf.sprintf "protocol error: expected %s" what)

let stats t : (Json.t, string) result =
  let id = fresh_id t in
  send t (Protocol.Stats { id });
  match read_event t with
  | Ok (Protocol.Stats_event s) when s.id = id -> Ok s.stats
  | other -> expecting "stats" other

let ping t : (unit, string) result =
  let id = fresh_id t in
  send t (Protocol.Ping { id });
  match read_event t with
  | Ok (Protocol.Pong p) when p.id = id -> Ok ()
  | other -> expecting "pong" other

(** Ask the daemon to drain and exit; returns once the shutdown is
    acknowledged. *)
let shutdown t : (unit, string) result =
  let id = fresh_id t in
  send t (Protocol.Shutdown { id });
  match read_event t with
  | Ok (Protocol.Bye b) when b.id = id -> Ok ()
  | other -> expecting "bye" other

(** Block until the daemon answers a ping, retrying every 50 ms (for
    100 tries) while the socket does not accept connections yet.  For
    scripts that just started a daemon in the background. *)
let wait_ready path =
  let attempts = 100 and every = 0.05 in
  let rec go n =
    match with_connection path ping with
    | Ok () -> true
    | Error _ | (exception Unix.Unix_error _) ->
      if n <= 1 then false
      else begin
        Unix.sleepf every;
        go (n - 1)
      end
  in
  go attempts
