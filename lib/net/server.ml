open Compo_core

(* [Compo_core.Domain] (value domains) shadows the runtime's domains *)
module Sys_domain = Stdlib.Domain
module Metrics = Compo_obs.Metrics
module Trace = Compo_obs.Trace
module Provenance = Compo_obs.Provenance
module Flightrec = Compo_obs.Flightrec
module Txn = Compo_txn.Transaction
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

let m_conns = Metrics.counter "net.connections"
let g_active = Metrics.gauge "net.connections.active"
let m_idle_closed = Metrics.counter "net.connections.idle_closed"
let m_sessions = Metrics.counter "net.sessions"
let m_requests = Metrics.counter "net.requests"
let m_bytes_in = Metrics.counter "net.bytes.in"
let m_bytes_out = Metrics.counter "net.bytes.out"
let m_proto_errors = Metrics.counter "net.protocol.errors"
let m_app_errors = Metrics.counter "net.app.errors"
let m_forced_aborts = Metrics.counter "net.txn.forced_aborts"
let h_request = Metrics.histogram "net.request.seconds"
let g_drain = Metrics.gauge "net.shutdown.drain.seconds"

(* gate-contention profiler: every kernel entry serialises on the gate
   mutex (see .mli), so its wait histogram *is* the server's scalability
   story — the sharded-gate follow-up is judged against these numbers *)
let h_gate_wait = Metrics.histogram "server.gate.wait_seconds"
let h_gate_hold = Metrics.histogram "server.gate.hold_seconds"
let g_gate_queue = Metrics.gauge "server.gate.queue_depth"
let m_slow_captured = Metrics.counter "server.slowlog.captured"

let opcode_names =
  [
    "open_session"; "ping"; "begin"; "commit"; "abort"; "get_attr";
    "set_attr"; "select"; "explain"; "stats"; "slowlog"; "close_session";
  ]

(* one counter per opcode, created eagerly so the families are visible
   (at zero) in any snapshot that includes this module *)
let op_counters =
  List.map
    (fun name -> (name, Metrics.counter ("net.requests." ^ name)))
    opcode_names

let op_counter req = List.assoc (P.request_op_name req) op_counters

(* per-opcode gate breakdown, eager for the same snapshot-visibility
   reason; opcodes that never take the gate (ping, stats) stay at zero *)
let gate_hists =
  List.map
    (fun name ->
      ( name,
        ( Metrics.histogram ("server.gate.wait_seconds." ^ name),
          Metrics.histogram ("server.gate.hold_seconds." ^ name) ) ))
    opcode_names

(* ------------------------------------------------------------------ *)

type config = {
  socket_path : string;
  accept_domains : int;
  idle_timeout : float;
  read_timeout : float;
  drain_deadline : float;
  max_frame : int;
  backlog : int;
}

let default_config ~socket_path =
  {
    socket_path;
    accept_domains = 2;
    idle_timeout = 300.;
    read_timeout = 10.;
    drain_deadline = 5.;
    max_frame = P.default_max_frame;
    backlog = 128;
  }

type session = {
  sid : int;
  fd : Unix.file_descr;
  mutable user : string;
  mutable opened : bool;
  mutable txn : Txn.t option;  (* mutated under the gate only *)
  mutable last_active : float;
}

(* One captured slow request.  [sq_plan] is the [Query.explain] report
   for select/explain opcodes, an opcode summary otherwise. *)
type slow_entry = {
  sq_ts : float;
  sq_op : string;
  sq_seconds : float;
  sq_trace : string option;
  sq_plan : string;
}

let slowlog_capacity = 64

type t = {
  cfg : config;
  db : Database.t;
  mgr : Txn.manager;
  gate : Mutex.t;  (* serialises every kernel entry (see .mli) *)
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  sm : Mutex.t;  (* guards [sessions], [live], [next_sid] *)
  sessions : (int, session) Hashtbl.t;
  mutable live : int;
  mutable next_sid : int;
  mutable acceptors : unit Sys_domain.t list;
  acc_live : int Atomic.t;  (* acceptor loops still polling the listen fd *)
  mutable drained : bool;
  mutable drain_time : float;
  mutable forced : int;
  slow_mu : Mutex.t;  (* guards [slowlog] *)
  mutable slowlog : slow_entry list;  (* newest first, bounded *)
}

(* Every kernel entry passes here.  Besides serialising, the gate now
   profiles itself — wait (queueing on the mutex) and hold (kernel time)
   into the [server.gate.*] families plus a per-opcode breakdown — and
   owns the wire trace context: the global trace slot is set only while
   the gate is held, which is what makes the single-writer contract in
   {!Trace.set_current_trace} true. *)
let with_gate ?op ?trace t f =
  if not (Metrics.enabled ()) then begin
    Mutex.lock t.gate;
    Trace.set_current_trace trace;
    Fun.protect
      ~finally:(fun () ->
        Trace.set_current_trace None;
        Mutex.unlock t.gate)
      f
  end
  else begin
    let t0 = Unix.gettimeofday () in
    Metrics.add_gauge g_gate_queue 1.;
    Mutex.lock t.gate;
    let t1 = Unix.gettimeofday () in
    Metrics.add_gauge g_gate_queue (-1.);
    let wait = t1 -. t0 in
    Metrics.observe h_gate_wait wait;
    let per_op = Option.bind op (fun name -> List.assoc_opt name gate_hists) in
    (match per_op with
    | Some (w, _) -> Metrics.observe w wait
    | None -> ());
    Trace.set_current_trace trace;
    Fun.protect
      ~finally:(fun () ->
        let hold = Unix.gettimeofday () -. t1 in
        Metrics.observe h_gate_hold hold;
        (match per_op with
        | Some (_, h) -> Metrics.observe h hold
        | None -> ());
        (* ring note while the slot is still set, so the gate span of a
           sampled request carries its trace id like the kernel spans *)
        Trace.note
          ~attrs:
            (("wait_us", Printf.sprintf "%.0f" (wait *. 1e6))
            ::
            (match op with Some o -> [ ("op", o) ] | None -> []))
          "server.gate" ~start:t1 ~duration:hold;
        Trace.set_current_trace None;
        Mutex.unlock t.gate)
      f
  end

let request_stop t = Atomic.set t.stopping true
let stop_requested t = Atomic.get t.stopping

let active_connections t =
  Mutex.lock t.sm;
  let n = t.live in
  Mutex.unlock t.sm;
  n

let drain_seconds t = t.drain_time
let forced_aborts t = t.forced

(* ------------------------------------------------------------------ *)
(* Request handling (kernel entries run under the gate)                *)

let app_error e =
  Metrics.incr m_app_errors;
  (* lock conflicts and the like are exactly the events a post-mortem
     wants in sequence with the txn boundaries around them *)
  Flightrec.record ~attrs:[ ("error", Errors.to_string e) ] "app.error";
  P.App_error (Errors.to_string e)

let abort_open_txn t s =
  with_gate t (fun () ->
      match s.txn with
      | None -> ()
      | Some txn ->
          s.txn <- None;
          ignore (Txn.abort t.mgr txn))

let render_slowlog entries =
  let thr = Trace.slow_threshold () in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "slow-query log: %d captured, threshold %s\n"
       (List.length entries)
       (if thr = infinity then "disabled (set COMPO_SLOW_MS)"
        else Printf.sprintf "%.1f ms" (thr *. 1000.)));
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "[%d] %s: %.1f ms, %.1f s ago%s\n" (i + 1) e.sq_op
           (e.sq_seconds *. 1000.) (now -. e.sq_ts)
           (match e.sq_trace with
           | None -> ""
           | Some id -> " trace=" ^ id));
      List.iter
        (fun line -> Buffer.add_string b ("    " ^ line ^ "\n"))
        (String.split_on_char '\n' e.sq_plan))
    entries;
  Buffer.contents b

let handle t s (trace : P.trace_ctx option) (req : P.request) : P.response =
  (* the trace id is threaded into the gate (and from there into kernel
     spans and provenance) only when the client marked it sampled *)
  let trace_id =
    match trace with
    | Some tc when tc.P.sampled -> Some tc.P.trace_id
    | _ -> None
  in
  let gate f = with_gate ~op:(P.request_op_name req) ?trace:trace_id t f in
  match req with
  | P.Open_session { magic; version; user } ->
      if s.opened then P.Protocol_error "session already open"
      else if not (String.equal magic P.magic) then
        P.Protocol_error "bad magic: not a compo client"
      else if version < P.min_version || version > P.version then
        P.Protocol_error
          (Printf.sprintf
             "protocol version mismatch: client %d, server speaks %d-%d"
             version P.min_version P.version)
      else begin
        s.opened <- true;
        s.user <- user;
        Metrics.incr m_sessions;
        Flightrec.record
          ~attrs:
            [
              ("sid", string_of_int s.sid); ("user", user);
              ("client_version", string_of_int version);
            ]
          "session.open";
        (* the server answers with its own version: a client that sees
           server_version >= 2 knows trace contexts will be understood *)
        P.Ok_session { session = s.sid; server_version = P.version }
      end
  | _ when not s.opened ->
      P.Protocol_error "expected open_session as the first request"
  | P.Ping -> P.Ok_unit
  | P.Close_session ->
      abort_open_txn t s;
      P.Ok_unit
  | P.Begin -> (
      match s.txn with
      | Some _ -> P.App_error "transaction already open on this session"
      | None ->
          gate (fun () ->
              s.txn <- Some (Txn.begin_txn t.mgr ~user:s.user);
              Flightrec.record
                ~attrs:[ ("sid", string_of_int s.sid) ]
                "txn.begin";
              P.Ok_unit))
  | P.Commit -> (
      match s.txn with
      | None -> P.App_error "no open transaction"
      | Some txn ->
          gate (fun () ->
              s.txn <- None;
              match Txn.commit t.mgr txn with
              | Ok () ->
                  Flightrec.record
                    ~attrs:[ ("sid", string_of_int s.sid) ]
                    "txn.commit";
                  P.Ok_unit
              | Error e -> app_error e))
  | P.Abort -> (
      match s.txn with
      | None -> P.App_error "no open transaction"
      | Some txn ->
          gate (fun () ->
              s.txn <- None;
              match Txn.abort t.mgr txn with
              | Ok () ->
                  Flightrec.record
                    ~attrs:[ ("sid", string_of_int s.sid) ]
                    "txn.abort";
                  P.Ok_unit
              | Error e -> app_error e))
  | P.Get_attr { obj; attr } ->
      gate (fun () ->
          let result =
            match s.txn with
            | Some txn -> Txn.get_attr t.mgr txn obj attr
            | None -> Database.get_attr t.db obj attr
          in
          match result with Ok v -> P.Ok_value v | Error e -> app_error e)
  | P.Set_attr { obj; attr; value } ->
      gate (fun () ->
          let result =
            match s.txn with
            | Some txn -> Txn.set_attr t.mgr txn obj attr value
            | None -> Database.set_attr t.db obj attr value
          in
          match result with Ok () -> P.Ok_unit | Error e -> app_error e)
  | P.Select { cls; where; jobs } -> (
      (* [jobs] is a retired parallelism hint: still validated as outside
         input, otherwise ignored *)
      match jobs with
      | Some j when j < 1 ->
          P.App_error (Printf.sprintf "jobs must be a positive integer (got %d)" j)
      | _ ->
          gate (fun () ->
              match Database.select t.db ~cls ?where () with
              | Ok rows -> P.Ok_rows rows
              | Error e -> app_error e))
  | P.Explain { cls; where } ->
      gate (fun () ->
          match Database.explain_select t.db ~cls ?where () with
          | Ok (rows, ex) ->
              P.Ok_text
                (Format.asprintf "%a@.%d object(s)"
                   (Query.pp_explain ~timings:false)
                   ex (List.length rows))
          | Error e -> app_error e)
  | P.Stats fmt ->
      P.Ok_text
        (match fmt with
        | P.Fmt_table -> Metrics.dump ()
        | P.Fmt_json -> Metrics.to_json ()
        | P.Fmt_openmetrics -> Metrics.to_openmetrics ()
        | P.Fmt_line -> Metrics.to_line_protocol ())
  | P.Slowlog ->
      Mutex.lock t.slow_mu;
      let entries = t.slowlog in
      Mutex.unlock t.slow_mu;
      P.Ok_text (render_slowlog entries)

(* A request that crossed the slow threshold gets its plan captured.
   For select/explain the plan is re-derived with [explain_select] —
   explain is cheap next to a query that was already slow, and the
   report (index choice, closure sizes, filter shape) is the whole
   point of the ring.  Other opcodes keep an opcode summary. *)
let capture_slow t (trace : P.trace_ctx option) req ~seconds =
  let plan =
    match req with
    | P.Select { cls; where; _ } | P.Explain { cls; where } -> (
        with_gate ~op:"explain" t (fun () ->
            match Database.explain_select t.db ~cls ?where () with
            | Ok (_, ex) ->
                Format.asprintf "%a" (Query.pp_explain ~timings:false) ex
            | Error e -> "explain failed: " ^ Errors.to_string e))
    | _ -> Printf.sprintf "(no plan for opcode %s)" (P.request_op_name req)
  in
  let entry =
    {
      sq_ts = Unix.gettimeofday ();
      sq_op = P.request_op_name req;
      sq_seconds = seconds;
      sq_trace = Option.map (fun tc -> tc.P.trace_id) trace;
      sq_plan = plan;
    }
  in
  Metrics.incr m_slow_captured;
  Flightrec.record
    ~attrs:
      [
        ("op", entry.sq_op);
        ("ms", Printf.sprintf "%.1f" (seconds *. 1000.));
      ]
    "slowlog.capture";
  Mutex.lock t.slow_mu;
  let kept = List.filteri (fun i _ -> i < slowlog_capacity - 1) t.slowlog in
  t.slowlog <- entry :: kept;
  Mutex.unlock t.slow_mu

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)

(* deregister and close under [sm] in one step: the forced-shutdown path
   in [stop] checks membership and calls [shutdown] under the same lock,
   so it can never touch an fd this function has already closed (and the
   kernel may have reissued to an embedded client) *)
let close_session t s =
  abort_open_txn t s;
  Mutex.lock t.sm;
  Hashtbl.remove t.sessions s.sid;
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  t.live <- t.live - 1;
  Metrics.set_gauge g_active (float_of_int t.live);
  Mutex.unlock t.sm;
  Flightrec.record ~attrs:[ ("sid", string_of_int s.sid) ] "conn.close"

let send_protocol_error fd msg =
  Metrics.incr m_proto_errors;
  Flightrec.record ~attrs:[ ("error", msg) ] "proto.error";
  try P.write_frame fd (P.encode_response ~id:0 (P.Protocol_error msg))
  with Unix.Unix_error _ -> ()

(* a session may linger past [request_stop] only while a transaction is
   open; everyone else is cut at the next tick or answered request *)
let must_linger t s = Atomic.get t.stopping = false || s.txn <> None

let rec conn_loop t s =
  match
    P.read_frame ~max_frame:t.cfg.max_frame ~frame_deadline:t.cfg.read_timeout
      s.fd
  with
  | Error `Eof -> ()
  | Error `Timeout ->
      if not (must_linger t s) then ()
      else if Unix.gettimeofday () -. s.last_active > t.cfg.idle_timeout then begin
        Metrics.incr m_idle_closed;
        Flightrec.record
          ~attrs:[ ("sid", string_of_int s.sid) ]
          "conn.idle_close"
      end
      else conn_loop t s
  | Error (`Frame msg) -> send_protocol_error s.fd msg
  | Ok body -> (
      s.last_active <- Unix.gettimeofday ();
      Metrics.add m_bytes_in (String.length body + 4);
      match P.decode_request body with
      | Error msg -> send_protocol_error s.fd msg
      | Ok (id, req, trace) ->
          Metrics.incr m_requests;
          Metrics.incr (op_counter req);
          let t0 = Unix.gettimeofday () in
          let resp = handle t s trace req in
          let dt = Unix.gettimeofday () -. t0 in
          Metrics.observe h_request dt;
          (* the server-side span of this request: op + wire trace id,
             linkable to the gate note and kernel spans in the ring *)
          Trace.note
            ~attrs:
              (("op", P.request_op_name req)
              ::
              (match trace with
              | Some tc -> [ ("trace", tc.P.trace_id) ]
              | None -> []))
            "net.server.request" ~start:t0 ~duration:dt;
          if dt >= Trace.slow_threshold () then
            capture_slow t trace req ~seconds:dt;
          let frame = P.encode_response ~id resp in
          let sent =
            try
              P.write_frame s.fd frame;
              true
            with Unix.Unix_error _ -> false
          in
          if sent then begin
            Metrics.add m_bytes_out (String.length frame + 4);
            match (resp, req) with
            | P.Protocol_error _, _ -> Metrics.incr m_proto_errors
            | _, P.Close_session -> ()
            | _ -> if must_linger t s then conn_loop t s
          end)

let register_conn t fd =
  (* the receive timeout is the idle tick: [read_frame] surfaces it as
     [`Timeout] so the handler can check idle/shutdown conditions *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  Metrics.incr m_conns;
  Mutex.lock t.sm;
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let s =
    {
      sid;
      fd;
      user = "?";
      opened = false;
      txn = None;
      last_active = Unix.gettimeofday ();
    }
  in
  Hashtbl.replace t.sessions sid s;
  t.live <- t.live + 1;
  Metrics.set_gauge g_active (float_of_int t.live);
  Mutex.unlock t.sm;
  Flightrec.record ~attrs:[ ("sid", string_of_int sid) ] "conn.open";
  ignore
    (Thread.create
       (fun () ->
         Fun.protect
           ~finally:(fun () -> close_session t s)
           (fun () -> try conn_loop t s with _ -> ()))
       ())

let rec accept_loop t =
  if not (Atomic.get t.stopping) then begin
    (* the listen fd is nonblocking and shared by all accept domains:
       select wakes possibly-many, accept hands the connection to one *)
    (match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> register_conn t fd
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
          ->
            ())
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
    accept_loop t
  end

(* a peer that hangs up mid-response would otherwise kill the host
   process with SIGPIPE; writes report EPIPE instead once it is ignored *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let start cfg db =
  ignore_sigpipe ();
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd cfg.backlog;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      db;
      mgr = Txn.create_manager (Database.store db);
      gate = Mutex.create ();
      listen_fd;
      stopping = Atomic.make false;
      sm = Mutex.create ();
      sessions = Hashtbl.create 64;
      live = 0;
      next_sid = 1;
      acceptors = [];
      acc_live = Atomic.make 0;
      drained = false;
      drain_time = 0.;
      forced = 0;
      slow_mu = Mutex.create ();
      slowlog = [];
    }
  in
  Flightrec.record
    ~attrs:
      [
        ("socket", cfg.socket_path);
        ("accept_domains", string_of_int (max 1 cfg.accept_domains));
      ]
    "server.start";
  Atomic.set t.acc_live (max 1 cfg.accept_domains);
  t.acceptors <-
    List.init (max 1 cfg.accept_domains) (fun _ ->
        Sys_domain.spawn (fun () ->
            (* handler threads share this domain's DLS: kernel entries
               they make are serialised by the gate, so provenance may
               record from here despite not being the main domain *)
            Provenance.permit_domain ();
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.acc_live)
              (fun () -> accept_loop t)));
  t

let stop t =
  if not t.drained then begin
    t.drained <- true;
    let t0 = Unix.gettimeofday () in
    request_stop t;
    Flightrec.record
      ~attrs:[ ("live", string_of_int (active_connections t)) ]
      "server.drain.begin";
    (* handler threads live in the acceptor domains (Thread.create runs
       in the spawning domain), and a domain only terminates once all its
       threads do — so joining the acceptor *domains* before the drain
       would deadlock against any session lingering with an open
       transaction.  Wait for the accept loops to wind down first, close
       the listen socket, drain, and join the domains at the very end. *)
    while Atomic.get t.acc_live > 0 do
      Thread.delay 0.01
    done;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    (* phase 1: sessions drain themselves — handlers close as soon as no
       transaction is open, commits/aborts still go through *)
    let deadline = t0 +. t.cfg.drain_deadline in
    while active_connections t > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.02
    done;
    (* phase 2: force-abort the stragglers and cut their connections;
       shutdown (not close) so the handler thread owning the fd sees EOF *)
    if active_connections t > 0 then begin
      Mutex.lock t.sm;
      let stragglers = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
      Mutex.unlock t.sm;
      Flightrec.record
        ~attrs:[ ("stragglers", string_of_int (List.length stragglers)) ]
        "server.drain.force";
      List.iter
        (fun s ->
          with_gate t (fun () ->
              match s.txn with
              | None -> ()
              | Some txn ->
                  s.txn <- None;
                  ignore (Txn.abort t.mgr txn);
                  t.forced <- t.forced + 1;
                  Metrics.incr m_forced_aborts;
                  Flightrec.record
                    ~attrs:[ ("sid", string_of_int s.sid) ]
                    "txn.forced_abort");
          Mutex.lock t.sm;
          if Hashtbl.mem t.sessions s.sid then (
            try Unix.shutdown s.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ());
          Mutex.unlock t.sm)
        stragglers;
      let hard = Unix.gettimeofday () +. 2.0 in
      while active_connections t > 0 && Unix.gettimeofday () < hard do
        Thread.delay 0.02
      done
    end;
    List.iter Sys_domain.join t.acceptors;
    t.acceptors <- [];
    t.drain_time <- Unix.gettimeofday () -. t0;
    Metrics.set_gauge g_drain t.drain_time;
    Flightrec.record
      ~attrs:
        [
          ("seconds", Printf.sprintf "%.3f" t.drain_time);
          ("forced", string_of_int t.forced);
        ]
      "server.drain.done"
  end

let slowlog_entries t =
  Mutex.lock t.slow_mu;
  let entries = t.slowlog in
  Mutex.unlock t.slow_mu;
  entries
