(* compo-server: serve a design database over a Unix-domain socket.

     compo-server --socket PATH DIR          serve a journaled directory
     compo-server --socket PATH --demo gates serve an in-memory scenario

   One connection is one session; Begin/Commit/Abort on a session drive
   one design transaction over the S/X/IS/IX lock manager, so remote
   designers conflict exactly as in-process ones do.  SIGTERM/SIGINT
   trigger a graceful drain: sessions holding an open transaction get
   --drain seconds to finish, stragglers are aborted, and (in directory
   mode) a checkpoint makes the served writes durable. *)

module Server = Compo_net.Server
module Journal = Compo_storage.Journal

let die msg =
  prerr_endline ("compo-server: " ^ msg);
  exit 1

let or_die = function
  | Ok v -> v
  | Error e -> die (Compo_core.Errors.to_string e)

let build_demo scenario populate =
  let open Compo_scenarios in
  let db = Compo_core.Database.create () in
  (match scenario with
  | "gates" ->
      or_die (Gates.define_schema db);
      let _ff = or_die (Gates.flip_flop db) in
      let iface = or_die (Gates.nor_interface db) in
      let _impl = or_die (Gates.nor_implementation db ~interface:iface) in
      if populate > 0 then
        ignore (or_die (Workload.interface_with_inheritors db ~n:populate))
  | "steel" ->
      or_die (Steel.define_schema db);
      ignore (or_die (Workload.screwed_structure db ~girders:3 ~bores_per_joint:2))
  | other -> die ("unknown demo " ^ other ^ " (use gates or steel)"));
  db

let entity_count db =
  let n = ref 0 in
  Compo_core.Store.iter (Compo_core.Database.store db) (fun _ -> incr n);
  !n

let serve socket_path dir demo populate accept_domains idle_timeout drain
    flightrec quiet =
  (match Compo_obs.Flightrec.configure_from_env () with
  | Ok () -> ()
  | Error msg -> die msg);
  (* COMPO_SLOW_MS drives the server's slow-query capture ring *)
  Compo_obs.Trace.configure_from_env ();
  let journal, db =
    match (dir, demo) with
    | Some _, Some _ -> die "DIR and --demo are mutually exclusive"
    | None, None -> die "nothing to serve: give a database DIR or --demo"
    | Some dir, None ->
        let j = or_die (Journal.open_dir dir) in
        (Some j, Journal.db j)
    | None, Some scenario -> (None, build_demo scenario populate)
  in
  Compo_obs.Metrics.enable ();
  let cfg =
    {
      (Server.default_config ~socket_path) with
      accept_domains;
      idle_timeout;
      drain_deadline = drain;
    }
  in
  let srv = Server.start cfg db in
  let say fmt =
    Printf.ksprintf (fun s -> if not quiet then print_endline s) fmt
  in
  say "compo-server: listening on %s (%d types, %d entities)" socket_path
    (List.length
       (Compo_core.Schema.entries (Compo_core.Database.schema db)))
    (entity_count db);
  if not quiet then flush stdout;
  let flightrec_path =
    match flightrec with Some p -> p | None -> socket_path ^ ".flightrec.json"
  in
  let dump_flightrec reason =
    (* the dump includes its own cause as the newest event *)
    Compo_obs.Flightrec.record ~attrs:[ ("reason", reason) ] "flightrec.dump";
    match Compo_obs.Flightrec.dump_to_file flightrec_path with
    | Ok () -> say "compo-server: flight recorder dumped to %s" flightrec_path
    | Error msg ->
        prerr_endline ("compo-server: flight recorder dump failed: " ^ msg)
  in
  (* an uncaught exception anywhere (acceptor domain, main thread) gets
     the last few thousand events written out before the process dies —
     the recorder's reason for existing *)
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      Compo_obs.Flightrec.record
        ~attrs:[ ("exn", Printexc.to_string exn) ]
        "server.crash";
      (try dump_flightrec "crash" with _ -> ());
      prerr_endline ("compo-server: fatal: " ^ Printexc.to_string exn);
      prerr_string (Printexc.raw_backtrace_to_string bt));
  let on_signal _ = Server.request_stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGUSR1 requests a dump; the handler only flips a flag, the write
     happens here in the main loop (the recorder takes a mutex) *)
  let usr1 = Atomic.make false in
  if not Sys.win32 then
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set usr1 true));
  while not (Server.stop_requested srv) do
    if Atomic.get usr1 then begin
      Atomic.set usr1 false;
      dump_flightrec "sigusr1";
      if not quiet then flush stdout
    end;
    Thread.delay 0.2
  done;
  Server.stop srv;
  (* server-mode writes go straight to the store; in directory mode a
     shutdown checkpoint is what makes them durable *)
  (match journal with
  | None -> ()
  | Some j ->
      or_die (Journal.checkpoint j);
      Journal.close j);
  say "compo-server: drained in %.3f s (%d forced abort(s))"
    (Server.drain_seconds srv) (Server.forced_aborts srv);
  if not quiet then flush stdout

open Cmdliner

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (required).")

let dir_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Journaled database directory to serve.")

let demo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "demo" ] ~docv:"SCENARIO"
        ~doc:
          "Serve an in-memory paper scenario ($(b,gates) or $(b,steel)) \
           instead of a directory.  Nothing is persisted.")

let populate_arg =
  Arg.(
    value & opt int 0
    & info [ "populate" ] ~docv:"N"
        ~doc:
          "With --demo gates: also bind $(docv) extra implementations to \
           one interface, giving load generators a wide extent of \
           inherited attributes.")

let accept_domains_arg =
  Arg.(
    value & opt int 2
    & info [ "accept-domains" ] ~docv:"N"
        ~doc:"Parallel accept-loop domains.")

let idle_timeout_arg =
  Arg.(
    value & opt float 300.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Disconnect sessions idle longer than this.")

let drain_arg =
  Arg.(
    value & opt float 5.
    & info [ "drain" ] ~docv:"SECONDS"
        ~doc:
          "Graceful-shutdown grace: sessions with an open transaction \
           get this long to commit or abort before the server aborts \
           them.")

let flightrec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flightrec" ] ~docv:"FILE"
        ~doc:
          "Where to dump the flight-recorder ring as JSON on $(b,SIGUSR1) \
           and on abnormal exit (default: the socket path plus \
           $(b,.flightrec.json)).  Pretty-print a dump with \
           $(b,compo flightrec FILE).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress status output.")

let cmd =
  let doc = "serve a compo design database over a Unix-domain socket" in
  Cmd.v
    (Cmd.info "compo-server" ~version:"1.0.0" ~doc
       ~envs:
         [
           Cmd.Env.info "COMPO_SLOW_MS"
             ~doc:
               "Slow-request threshold in milliseconds: requests above it \
                get their explain plan captured into the slow-query ring \
                (see $(b,compo slowlog)).";
           Cmd.Env.info "COMPO_FLIGHTREC_CAPACITY"
             ~doc:
               "Flight-recorder ring capacity (default 4096 events).  \
                Must be a positive integer.";
         ])
    Term.(
      const
        (fun socket dir demo populate accept_domains idle_timeout drain
             flightrec quiet ->
        serve socket dir demo populate accept_domains idle_timeout drain
          flightrec quiet)
      $ socket_arg $ dir_arg $ demo_arg $ populate_arg $ accept_domains_arg
      $ idle_timeout_arg $ drain_arg $ flightrec_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
