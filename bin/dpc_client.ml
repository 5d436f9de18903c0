(* dpc-client: command-line client for the dpcd sweep daemon.

   Usage:
     dpc-client --socket /tmp/dpcd.sock --ping
     dpc-client --socket /tmp/dpcd.sock \
       --scenario app=SSSP,variant=grid-level,scale=500 --json out.json
     dpc-client --socket /tmp/dpcd.sock --sweep sweep.json
     dpc-client --socket /tmp/dpcd.sock --stats
     dpc-client --socket /tmp/dpcd.sock --shutdown

   Scenario sweeps stream: one progress line per outcome as the server
   finishes it.  --json re-assembles the streamed records into a
   dpc-sweep-v1 snapshot (source "dpc-client") that is record-wise
   byte-identical to what `experiments --sweep --json` writes for the
   same scenarios.

   Exit status: 0 on success, 1 when any scenario failed (or the request
   timed out, or the daemon refused it), 2 on usage errors. *)

open Cmdliner
module Json = Dpc_prof.Json
module Scenario = Dpc_engine.Scenario
module Client = Dpc_serve.Client
module Protocol = Dpc_serve.Protocol

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty json))

let progress ~quiet (ev : Protocol.event) =
  if not quiet then
    match ev with
    | Protocol.Outcome o ->
      let label =
        match Json.member "key" o.outcome with
        | Some (Json.String k) -> k
        | _ -> "?"
      in
      let status =
        if Json.member "error" o.outcome <> None then "FAILED" else "ok"
      in
      Printf.eprintf "[%d/%d] %s  %s (%.3fs)\n%!" (o.seq + 1) o.total label
        status o.elapsed_s
    | _ -> ()

let run_sweep conn ~quiet ~timeout_s ~json_out scenario_args sweep_file =
  let parsed = List.map Scenario.of_string scenario_args in
  let from_file =
    match sweep_file with
    | None -> []
    | Some path -> Scenario.sweep_of_json (Json.parse (read_file path))
  in
  let scs = parsed @ from_file in
  if scs = [] then begin
    prerr_endline "dpc-client: empty sweep (no scenarios given)";
    exit 2
  end;
  match Client.sweep ?timeout_s ~on_event:(progress ~quiet) conn scs with
  | Error msg ->
    Printf.eprintf "dpc-client: %s\n" msg;
    1
  | Ok r ->
    if not quiet then
      Printf.eprintf "%d run, %d failed%s in %.3fs (server wall clock)\n%!"
        r.Client.runs r.Client.failed
        (if r.Client.timed_out then
           Printf.sprintf ", %d skipped (request timed out)" r.Client.skipped
         else "")
        r.Client.elapsed_s;
    (match json_out with
    | Some path ->
      write_file path (Client.sweep_snapshot r);
      if not quiet then Printf.eprintf "[sweep] outcome snapshot -> %s\n%!" path
    | None -> ());
    if r.Client.failed > 0 || r.Client.timed_out then 1 else 0

let run socket scenario_args sweep_file json_out timeout_s stats ping shutdown
    quiet =
  let fail_usage msg =
    prerr_endline ("dpc-client: " ^ msg);
    exit 2
  in
  let modes =
    (if stats then 1 else 0) + (if ping then 1 else 0)
    + (if shutdown then 1 else 0)
    + if scenario_args <> [] || sweep_file <> None then 1 else 0
  in
  if modes = 0 then
    fail_usage "nothing to do (give --scenario/--sweep, --stats, --ping or --shutdown)";
  if modes > 1 then
    fail_usage "--stats, --ping, --shutdown and sweeps are mutually exclusive";
  match Client.connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "dpc-client: cannot connect to %s: %s\n" socket
      (Unix.error_message e);
    1
  | conn ->
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        if ping then
          match Client.ping conn with
          | Ok () ->
            if not quiet then print_endline "pong";
            0
          | Error msg ->
            Printf.eprintf "dpc-client: %s\n" msg;
            1
        else if stats then
          match Client.stats conn with
          | Ok j ->
            print_endline (Json.to_string_pretty j);
            0
          | Error msg ->
            Printf.eprintf "dpc-client: %s\n" msg;
            1
        else if shutdown then
          match Client.shutdown conn with
          | Ok () ->
            if not quiet then print_endline "daemon draining";
            0
          | Error msg ->
            Printf.eprintf "dpc-client: %s\n" msg;
            1
        else
          try run_sweep conn ~quiet ~timeout_s ~json_out scenario_args sweep_file
          with Invalid_argument msg | Failure msg ->
            Printf.eprintf "dpc-client: %s\n" msg;
            2)

let socket =
  Arg.(required & opt (some string) None
       & info [ "socket"; "connect" ] ~docv:"PATH"
       ~doc:"Unix-domain socket path of the dpcd daemon.")

let scenario_args =
  Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"KEY=V,..."
       ~doc:"Run one scenario on the daemon (repeatable); same syntax as \
             $(b,experiments --scenario).")

let sweep_file =
  Arg.(value & opt (some file) None & info [ "sweep" ] ~docv:"FILE"
       ~doc:"Run every scenario of a JSON sweep file; same format as \
             $(b,experiments --sweep).")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
       ~doc:"Write the streamed outcomes as a dpc-sweep-v1 snapshot \
             (source \"dpc-client\") to $(docv).")

let timeout_s =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
       ~doc:"Request-level wall-clock budget; the server skips the \
             remaining scenarios once exceeded.")

let stats =
  Arg.(value & flag & info [ "stats" ]
       ~doc:"Print the daemon's stats (cache hits, input reuse, latency) \
             as JSON.")

let ping =
  Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check.")

let shutdown =
  Arg.(value & flag & info [ "shutdown" ]
       ~doc:"Ask the daemon to drain in-flight work and exit.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ]
       ~doc:"Suppress per-outcome progress lines.")

let cmd =
  let doc = "talk to a dpcd sweep daemon" in
  Cmd.v (Cmd.info "dpc-client" ~doc)
    Term.(
      const run $ socket $ scenario_args $ sweep_file $ json_out $ timeout_s
      $ stats $ ping $ shutdown $ quiet)

let () = exit (Cmd.eval' cmd)
