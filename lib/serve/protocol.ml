(** The [dpc-serve-v1] wire protocol.

    Messages are newline-delimited JSON documents ({!Dpc_util.Framing})
    over a Unix-domain stream socket: every request and every response
    is one compact JSON object on one line, tagged with the protocol
    version under ["v"].  A client sends one request per line and reads
    response lines; a [sweep] request streams one [outcome] event per
    finished scenario (in submission order) followed by a terminal
    [done] event, so responses arrive as scenarios complete rather than
    when the whole request finishes.

    Requests carry a client-chosen [id]; every response echoes it, so a
    client can match streams to requests (the server itself serves one
    request stream per connection at a time, but interleaves work
    {e across} connections).

    Outcome payloads reuse the [dpc-sweep-v1] record shape
    ({!Dpc_experiments.Export.outcome_json}) verbatim — a client can
    re-assemble a byte-identical sweep snapshot from the stream — while
    the envelope adds the serve-only fields (ids, sequence numbers,
    per-scenario wall clock). *)

module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario

let version = "dpc-serve-v1"

(* --- requests -------------------------------------------------------------- *)

type request =
  | Sweep of {
      id : string;
      scenarios : Scenario.t list;
      timeout_s : float option;  (** request-level wall-clock budget *)
    }
  | Stats of { id : string }
  | Ping of { id : string }
  | Shutdown of { id : string }

let request_to_json (r : request) =
  let base verb id rest =
    Json.Obj
      (("v", Json.String version)
       :: ("verb", Json.String verb)
       :: ("id", Json.String id)
       :: rest)
  in
  match r with
  | Sweep { id; scenarios; timeout_s } ->
    base "sweep" id
      (( "scenarios",
         Json.List (List.map Scenario.to_json scenarios) )
       ::
       (match timeout_s with
       | Some s -> [ ("timeout_s", Json.Float s) ]
       | None -> []))
  | Stats { id } -> base "stats" id []
  | Ping { id } -> base "ping" id []
  | Shutdown { id } -> base "shutdown" id []

(** Parse one request line.  [Error] carries a human-readable reason;
    the server answers it with an [error] event instead of dying. *)
let request_of_json (j : Json.t) : (request, string) result =
  match j with
  | Json.Obj _ -> (
    let str k = Option.map Json.to_str (Json.member k j) in
    let id = Option.value (str "id") ~default:"" in
    (match str "v" with
    | Some v when v <> version ->
      Error (Printf.sprintf "unsupported protocol version %S (want %s)" v version)
    | _ -> (
      match str "verb" with
      | None -> Error "missing \"verb\""
      | Some "stats" -> Ok (Stats { id })
      | Some "ping" -> Ok (Ping { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some "sweep" -> (
        match Json.member "scenarios" j with
        | None -> Error "sweep: missing \"scenarios\""
        | Some _ -> (
          try
            let scenarios = Scenario.sweep_of_json j in
            let timeout_s =
              Option.map Json.number (Json.member "timeout_s" j)
            in
            Ok (Sweep { id; scenarios; timeout_s })
          with
          | Invalid_argument m | Failure m -> Error m
          | Json.Parse_error m -> Error m))
      | Some other -> Error (Printf.sprintf "unknown verb %S" other))))
  | _ -> Error "request must be a JSON object"

let request_of_string s =
  match Json.parse s with
  | exception Json.Parse_error m -> Error ("bad JSON: " ^ m)
  | j -> request_of_json j

(* --- responses ------------------------------------------------------------- *)

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
      runs : int;  (** scenarios executed (streamed as [Outcome]s) *)
      failed : int;
      skipped : int;  (** scenarios dropped by the request timeout *)
      timed_out : bool;
      elapsed_s : float;  (** whole-request wall clock on the server *)
    }
  | Error_event of { id : string; code : string; message : string }
  | Stats_event of { id : string; stats : Json.t }
  | Pong of { id : string }
  | Bye of { id : string }  (** shutdown acknowledged; daemon is draining *)

let event_to_json (e : event) =
  let base ev id rest =
    Json.Obj
      (("v", Json.String version)
       :: ("event", Json.String ev)
       :: ("id", Json.String id)
       :: rest)
  in
  match e with
  | Outcome { id; seq; total; elapsed_s; outcome } ->
    base "outcome" id
      [
        ("seq", Json.Int seq);
        ("total", Json.Int total);
        ("elapsed_s", Json.Float elapsed_s);
        ("outcome", outcome);
      ]
  | Done { id; runs; failed; skipped; timed_out; elapsed_s } ->
    base "done" id
      [
        ("runs", Json.Int runs);
        ("failed", Json.Int failed);
        ("skipped", Json.Int skipped);
        ("timed_out", Json.Bool timed_out);
        ("elapsed_s", Json.Float elapsed_s);
      ]
  | Error_event { id; code; message } ->
    base "error" id
      [ ("code", Json.String code); ("message", Json.String message) ]
  | Stats_event { id; stats } -> base "stats" id [ ("stats", stats) ]
  | Pong { id } -> base "pong" id []
  | Bye { id } -> base "bye" id []

let event_of_json (j : Json.t) : (event, string) result =
  let str k = Option.map Json.to_str (Json.member k j) in
  let int k = Option.map Json.to_int (Json.member k j) in
  let num k = Option.map Json.number (Json.member k j) in
  let req what = function
    | Some v -> v
    | None -> raise (Json.Parse_error (Printf.sprintf "event: missing %s" what))
  in
  match j with
  | Json.Obj _ -> (
    let id = Option.value (str "id") ~default:"" in
    try
      match str "event" with
      | None -> Error "missing \"event\""
      | Some "outcome" ->
        Ok
          (Outcome
             {
               id;
               seq = req "seq" (int "seq");
               total = req "total" (int "total");
               elapsed_s = req "elapsed_s" (num "elapsed_s");
               outcome = req "outcome" (Json.member "outcome" j);
             })
      | Some "done" ->
        let bool k =
          match Json.member k j with
          | Some (Json.Bool b) -> b
          | _ -> false
        in
        Ok
          (Done
             {
               id;
               runs = req "runs" (int "runs");
               failed = req "failed" (int "failed");
               skipped = Option.value (int "skipped") ~default:0;
               timed_out = bool "timed_out";
               elapsed_s = req "elapsed_s" (num "elapsed_s");
             })
      | Some "error" ->
        Ok
          (Error_event
             {
               id;
               code = Option.value (str "code") ~default:"error";
               message = req "message" (str "message");
             })
      | Some "stats" ->
        Ok (Stats_event { id; stats = req "stats" (Json.member "stats" j) })
      | Some "pong" -> Ok (Pong { id })
      | Some "bye" -> Ok (Bye { id })
      | Some other -> Error (Printf.sprintf "unknown event %S" other)
    with Json.Parse_error m -> Error m)
  | _ -> Error "event must be a JSON object"

let event_of_string s =
  match Json.parse s with
  | exception Json.Parse_error m -> Error ("bad JSON: " ^ m)
  | j -> event_of_json j

(* --- framing over file descriptors ----------------------------------------- *)

(** Serialize one message to its wire frame (compact JSON + newline).
    The compact printer never emits raw newlines, so the frame is safe
    for the line framing by construction. *)
let frame (j : Json.t) = Json.to_string j ^ "\n"

(** Write one frame, looping over partial writes.  Raises
    [Unix.Unix_error] (e.g. [EPIPE]) when the peer is gone. *)
let write_frame fd (j : Json.t) =
  let s = Bytes.unsafe_of_string (frame j) in
  let n = Bytes.length s in
  let rec go off =
    if off < n then
      let w = Unix.write fd s off (n - off) in
      go (off + w)
  in
  go 0
