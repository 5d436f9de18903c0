(* dpcd: the sweep-serving daemon.

   Binds a Unix-domain socket, builds one warm Dpc_engine.Session (by
   default backed by the persistent on-disk program cache under
   ~/.cache/dpc) and serves dpc-serve-v1 requests until SIGINT/SIGTERM
   or a shutdown request, then drains in-flight work and exits 0.

   Usage:
     dpcd --socket /tmp/dpcd.sock
     dpcd --socket /tmp/dpcd.sock --cache-dir /var/cache/dpc
     dpcd --socket /tmp/dpcd.sock --no-persist --max-scenarios 200 \
          --timeout 30

   Talk to it with dpc-client (or any newline-delimited-JSON client;
   the protocol is documented in DESIGN.md section 10). *)

open Cmdliner

(* ~/.cache/dpc, honouring XDG_CACHE_HOME; mirrors common tool layout. *)
let default_cache_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "dpc"
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" ->
      Filename.concat (Filename.concat h ".cache") "dpc"
    | _ -> Filename.concat Filename.current_dir_name ".dpc-cache")

let run socket cache_dir no_persist max_scenarios timeout strict quiet =
  let cache_dir =
    if no_persist then None
    else Some (Option.value cache_dir ~default:(default_cache_dir ()))
  in
  let cfg =
    Dpc_serve.Server.config ~cache_dir ~max_scenarios ~max_timeout_s:timeout
      ~strict_check:strict ~verbose:(not quiet) socket
  in
  match Dpc_serve.Server.create cfg with
  | exception Failure msg ->
    prerr_endline msg;
    1
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "dpcd: cannot bind %s: %s (%s %s)\n" socket
      (Unix.error_message e) fn arg;
    1
  | server ->
    Dpc_serve.Server.install_signal_handlers server;
    Dpc_serve.Server.run server;
    0

let socket =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Unix-domain socket path to listen on.  A stale socket file \
             is replaced; a live one is refused.")

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
       ~doc:"Root of the persistent on-disk program cache (created if \
             absent).  Default: \\$XDG_CACHE_HOME/dpc or ~/.cache/dpc.")

let no_persist =
  Arg.(value & flag & info [ "no-persist" ]
       ~doc:"Keep the program cache in memory only (no on-disk store).")

let max_scenarios =
  Arg.(value & opt int 10_000 & info [ "max-scenarios" ] ~docv:"N"
       ~doc:"Refuse sweep requests with more than $(docv) scenarios \
             (0 = unlimited).")

let timeout =
  Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECONDS"
       ~doc:"Cap (and default) for per-request wall-clock budgets; when \
             exceeded the request's remaining scenarios are skipped and \
             its done event reports timed_out (0 = none).  Checked \
             between scenarios: a scenario is never preempted \
             mid-simulation.")

let strict =
  Arg.(value & flag & info [ "strict"; "strict-check" ]
       ~doc:"Run every served scenario under the full strict verifier: \
             each program the daemon builds is linted, its consolidation \
             translation-validated and its bytecode streams verified \
             before it runs.  A diagnostic failure becomes that \
             scenario's structured error outcome; the daemon keeps \
             serving.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ]
       ~doc:"Suppress connection/request logging on stderr.")

let cmd =
  let doc = "serve dpc scenario sweeps from one warm session" in
  Cmd.v (Cmd.info "dpcd" ~doc)
    Term.(
      const run $ socket $ cache_dir $ no_persist $ max_scenarios $ timeout
      $ strict $ quiet)

let () = exit (Cmd.eval' cmd)
