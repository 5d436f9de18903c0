(** Client side of [dpc-serve-v1]: synchronous, one request in flight
    per connection.  Open several connections for concurrency — the
    server interleaves them at scenario granularity. *)

module Json = Dpc_prof.Json

type t

(** @raise Unix.Unix_error when nothing is listening at [path]. *)
val connect : string -> t

val close : t -> unit

(** [with_connection path f] runs [f] on a fresh connection, closing it
    on the way out (also on exceptions). *)
val with_connection : string -> (t -> 'a) -> 'a

type sweep_result = {
  runs : int;
  failed : int;  (** runs whose record carries an [error] member *)
  skipped : int;  (** scenarios dropped by the request timeout *)
  timed_out : bool;
  elapsed_s : float;  (** whole-request wall clock on the server *)
  outcomes : Json.t list;
      (** the streamed [dpc-sweep-v1] records, in submission order *)
}

(** Submit a sweep and block until its terminal event.  [on_event] sees
    every raw event as it arrives (progress displays); outcome payloads
    are also collected into the result.  [Error] carries the server's
    refusal (quota, draining, bad request) or a transport failure. *)
val sweep :
  ?timeout_s:float ->
  ?on_event:(Protocol.event -> unit) ->
  t ->
  Dpc_engine.Scenario.t list ->
  (sweep_result, string) result

(** Re-assemble a [dpc-sweep-v1] snapshot ([source] tag ["dpc-client"])
    from a sweep's streamed records; record-wise byte-identical to
    {!Dpc_experiments.Export.sweep_json} for the same scenarios. *)
val sweep_snapshot : sweep_result -> Json.t

val stats : t -> (Json.t, string) result

val ping : t -> (unit, string) result

(** Ask the daemon to drain and exit; returns once acknowledged. *)
val shutdown : t -> (unit, string) result

(** Block until the daemon at [path] answers a ping, retrying every
    50 ms up to 100 times; [false] when it never came up. *)
val wait_ready : string -> bool
