(** The [dpc-serve-v1] wire protocol: newline-delimited JSON over a
    Unix-domain stream socket.

    A client sends one request object per line; the server answers with
    response-event lines echoing the request's [id].  A [sweep] request
    streams one [outcome] event per finished scenario (in submission
    order) and ends with a [done] event; outcome payloads are verbatim
    [dpc-sweep-v1] records ({!Dpc_experiments.Export.outcome_json}),
    with the serve-only fields (ids, sequence numbers, wall clocks) in
    the envelope. *)

module Json = Dpc_prof.Json

type request =
  | Sweep of {
      id : string;
      scenarios : Dpc_engine.Scenario.t list;
      timeout_s : float option;  (** request-level wall-clock budget *)
    }
  | Stats of { id : string }
  | Ping of { id : string }
  | Shutdown of { id : string }

val request_to_json : request -> Json.t

val request_of_string : string -> (request, string) result

type event =
  | Outcome of {
      id : string;
      seq : int;  (** 0-based submission index within the request *)
      total : int;
      elapsed_s : float;  (** this scenario's wall clock on the server *)
      outcome : Json.t;  (** a [dpc-sweep-v1] outcome record, verbatim *)
    }
  | Done of {
      id : string;
      runs : int;
      failed : int;
      skipped : int;  (** scenarios dropped by the request timeout *)
      timed_out : bool;
      elapsed_s : float;  (** whole-request wall clock on the server *)
    }
  | Error_event of { id : string; code : string; message : string }
  | Stats_event of { id : string; stats : Json.t }
  | Pong of { id : string }
  | Bye of { id : string }  (** shutdown acknowledged; daemon draining *)

val event_to_json : event -> Json.t
val event_of_string : string -> (event, string) result

(** One message as its wire frame: compact JSON plus ['\n']. *)
val frame : Json.t -> string

(** Write one frame, looping over partial writes.
    @raise Unix.Unix_error when the peer is gone (e.g. [EPIPE]). *)
val write_frame : Unix.file_descr -> Json.t -> unit
