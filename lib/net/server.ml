open Compo_core

(* [Compo_core.Domain] (value domains) shadows the runtime's domains *)
module Sys_domain = Stdlib.Domain
module Metrics = Compo_obs.Metrics
module Trace = Compo_obs.Trace
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
let m_slow_captured = Metrics.counter "server.slowlog.captured"

(* Where a request's time in the server goes.  [wait]: from the read that
   brought its last bytes in to the moment the kernel took it (behind
   the loop's other work, or behind its own connection's earlier
   frames); [hold]: the kernel call itself, the span [h_request] also
   observes.  The names predate the event loop, when a gate mutex stood
   where the loop now serialises; the benchmark's designer workload
   reads them under these names. *)
let h_wait = Metrics.histogram "server.gate.wait_seconds"
let h_hold = Metrics.histogram "server.gate.hold_seconds"

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

(* ------------------------------------------------------------------ *)

type config = {
  socket_path : string;
  idle_timeout : float;
  read_timeout : float;
  drain_deadline : float;
  max_frame : int;
  backlog : int;
}

let default_config ~socket_path =
  {
    socket_path;
    idle_timeout = 300.;
    read_timeout = 10.;
    drain_deadline = 5.;
    max_frame = P.default_max_frame;
    backlog = 128;
  }

(* A growable byte queue: the live bytes are [q_off, q_len) of [q_buf]. *)
type queue = { mutable q_buf : Bytes.t; mutable q_off : int; mutable q_len : int }

let queue () = { q_buf = Bytes.create 4096; q_off = 0; q_len = 0 }
let queued q = q.q_len - q.q_off

let consume q n =
  q.q_off <- q.q_off + n;
  if q.q_off = q.q_len then begin
    q.q_off <- 0;
    q.q_len <- 0
  end

(* room for [n] more bytes after [q_len], compacting before growing *)
let reserve q n =
  let live = queued q in
  if q.q_len + n > Bytes.length q.q_buf then begin
    let buf =
      if live + n <= Bytes.length q.q_buf then q.q_buf
      else Bytes.create (max (live + n) (2 * Bytes.length q.q_buf))
    in
    Bytes.blit q.q_buf q.q_off buf 0 live;
    q.q_buf <- buf;
    q.q_off <- 0;
    q.q_len <- live
  end

let push_frame q body =
  let len = String.length body in
  reserve q (4 + len);
  Bytes.set_int32_le q.q_buf q.q_len (Int32.of_int len);
  Bytes.blit_string body 0 q.q_buf (q.q_len + 4) len;
  q.q_len <- q.q_len + 4 + len

(* Past this many queued reply bytes the loop stops reading and serving
   a connection until its peer reads: a client that pipelines without
   reading backs up into its own socket, not into the server. *)
let out_high_water = 1 lsl 20
let read_chunk = 65536

(* One connection is one session.  Every field is owned by the loop. *)
type session = {
  sid : int;
  fd : Unix.file_descr;
  mutable user : string;
  mutable opened : bool;
  mutable txn : Txn.t option;
  mutable last_active : float;
  mutable partial_since : float;
      (* arrival of an unfinished frame's first byte; [infinity] while
         the input holds no unfinished frame *)
  mutable read_at : float;  (* time of the last read that brought bytes *)
  inq : queue;
  outq : queue;
  mutable closing : bool;  (* read nothing more; close once flushed *)
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
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  sessions : (Unix.file_descr, session) Hashtbl.t;
  live : int Atomic.t;
  mutable next_sid : int;
  mutable loop : unit Sys_domain.t option;
  (* written by the loop, read by [stop] after joining it *)
  mutable drain_time : float;
  mutable forced : int;
  slowlog : slow_entry list Atomic.t;  (* newest first, bounded *)
}

let request_stop t = Atomic.set t.stopping true
let stop_requested t = Atomic.get t.stopping
let active_connections t = Atomic.get t.live
let drain_seconds t = t.drain_time
let forced_aborts t = t.forced
let slowlog_entries t = Atomic.get t.slowlog

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let app_error e =
  Metrics.incr m_app_errors;
  (* lock conflicts and the like are exactly the events a post-mortem
     wants in sequence with the txn boundaries around them *)
  Flightrec.record ~attrs:[ ("error", Errors.to_string e) ] "app.error";
  P.App_error (Errors.to_string e)

let abort_open_txn t s =
  match s.txn with
  | None -> ()
  | Some txn ->
      s.txn <- None;
      ignore (Txn.abort t.mgr txn)

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

let handle t s (req : P.request) : P.response =
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
          s.txn <- Some (Txn.begin_txn t.mgr ~user:s.user);
          Flightrec.record ~attrs:[ ("sid", string_of_int s.sid) ] "txn.begin";
          P.Ok_unit)
  | P.Commit -> (
      match s.txn with
      | None -> P.App_error "no open transaction"
      | Some txn -> (
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
      | Some txn -> (
          s.txn <- None;
          match Txn.abort t.mgr txn with
          | Ok () ->
              Flightrec.record
                ~attrs:[ ("sid", string_of_int s.sid) ]
                "txn.abort";
              P.Ok_unit
          | Error e -> app_error e))
  | P.Get_attr { obj; attr } -> (
      let result =
        match s.txn with
        | Some txn -> Txn.get_attr t.mgr txn obj attr
        | None -> Database.get_attr t.db obj attr
      in
      match result with Ok v -> P.Ok_value v | Error e -> app_error e)
  | P.Set_attr { obj; attr; value } -> (
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
      | _ -> (
          match Database.select t.db ~cls ?where () with
          | Ok rows -> P.Ok_rows rows
          | Error e -> app_error e))
  | P.Explain { cls; where } -> (
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
  | P.Slowlog -> P.Ok_text (render_slowlog (Atomic.get t.slowlog))

(* A request that crossed the slow threshold gets its plan captured.
   For select/explain the plan is re-derived with [explain_select] —
   explain is cheap next to a query that was already slow, and the
   report (index choice, closure sizes, filter shape) is the whole
   point of the ring.  Other opcodes keep an opcode summary. *)
let capture_slow t (trace : P.trace_ctx option) req ~seconds =
  let plan =
    match req with
    | P.Select { cls; where; _ } | P.Explain { cls; where } -> (
        match Database.explain_select t.db ~cls ?where () with
        | Ok (_, ex) -> Format.asprintf "%a" (Query.pp_explain ~timings:false) ex
        | Error e -> "explain failed: " ^ Errors.to_string e)
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
  let kept =
    List.filteri (fun i _ -> i < slowlog_capacity - 1) (Atomic.get t.slowlog)
  in
  Atomic.set t.slowlog (entry :: kept)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)

let close_session t s =
  abort_open_txn t s;
  Hashtbl.remove t.sessions s.fd;
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  let live = Atomic.fetch_and_add t.live (-1) - 1 in
  Metrics.set_gauge g_active (float_of_int live);
  Flightrec.record ~attrs:[ ("sid", string_of_int s.sid) ] "conn.close"

let reply s ~id resp =
  let frame = P.encode_response ~id resp in
  push_frame s.outq frame;
  Metrics.add m_bytes_out (String.length frame + 4)

(* answer with a protocol error, then hang up once it is flushed *)
let protocol_error s msg =
  Metrics.incr m_proto_errors;
  Flightrec.record ~attrs:[ ("error", msg) ] "proto.error";
  reply s ~id:0 (P.Protocol_error msg);
  s.closing <- true

(* a session may linger past [request_stop] only while a transaction is
   open; everyone else is cut once their answered requests are flushed *)
let must_linger t s = (not (Atomic.get t.stopping)) || s.txn <> None

let serve_request t s body =
  s.last_active <- Unix.gettimeofday ();
  Metrics.add m_bytes_in (String.length body + 4);
  match P.decode_request body with
  | Error msg -> protocol_error s msg
  | Ok (id, req, trace) -> (
      Metrics.incr m_requests;
      Metrics.incr (op_counter req);
      (* the trace slot carries a sampled wire trace id into kernel spans
         and provenance records for exactly this request *)
      (match trace with
      | Some tc when tc.P.sampled -> Trace.set_current_trace (Some tc.P.trace_id)
      | _ -> ());
      let t0 = Unix.gettimeofday () in
      Metrics.observe h_wait (Float.max 0. (t0 -. s.read_at));
      let resp =
        Fun.protect
          ~finally:(fun () -> Trace.set_current_trace None)
          (fun () -> handle t s req)
      in
      let dt = Unix.gettimeofday () -. t0 in
      Metrics.observe h_hold dt;
      Metrics.observe h_request dt;
      (* the server-side span of this request: op + wire trace id,
         linkable to the kernel spans in the ring *)
      Trace.note
        ~attrs:
          (("op", P.request_op_name req)
          ::
          (match trace with
          | Some tc -> [ ("trace", tc.P.trace_id) ]
          | None -> []))
        "net.server.request" ~start:t0 ~duration:dt;
      if dt >= Trace.slow_threshold () then capture_slow t trace req ~seconds:dt;
      reply s ~id resp;
      match (resp, req) with
      | P.Protocol_error _, _ ->
          Metrics.incr m_proto_errors;
          s.closing <- true
      | _, P.Close_session -> s.closing <- true
      | _ -> if not (must_linger t s) then s.closing <- true)

(* Body length of the frame at the head of [q]; -1 while its prefix is
   incomplete. *)
let head_len q =
  if queued q < 4 then -1
  else Int32.to_int (Bytes.get_int32_le q.q_buf q.q_off) land 0xffff_ffff

let head_complete q =
  let len = head_len q in
  len >= 0 && queued q >= 4 + len

(* Serve the complete frames in [s.inq], in arrival order, until the
   input holds none, the session is closing, or its replies pass the
   high-water mark. *)
let rec serve_frames t s =
  if (not s.closing) && queued s.outq < out_high_water then begin
    let len = head_len s.inq in
    if len > t.cfg.max_frame then
      protocol_error s
        (Printf.sprintf "frame of %d bytes exceeds limit %d" len t.cfg.max_frame)
    else if head_complete s.inq then begin
      let body = Bytes.sub_string s.inq.q_buf (s.inq.q_off + 4) len in
      consume s.inq (4 + len);
      serve_request t s body;
      serve_frames t s
    end
  end

(* Write what the socket accepts; [false] when the peer is gone. *)
let flush s =
  let q = s.outq in
  let rec go () =
    if queued q = 0 then true
    else
      match Unix.single_write s.fd q.q_buf q.q_off (queued q) with
      | n ->
          consume q n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> false
  in
  go ()

(* Serve and flush until no progress is possible, then close the
   session if it is done.  An unfinished frame left in the input starts
   its read-timeout clock. *)
let rec pump t s =
  serve_frames t s;
  if not (flush s) then close_session t s
  else if s.closing then (if queued s.outq = 0 then close_session t s)
  else if queued s.outq < out_high_water && head_complete s.inq then pump t s
  else if queued s.inq = 0 || head_complete s.inq then s.partial_since <- infinity
  else if s.partial_since = infinity then s.partial_since <- Unix.gettimeofday ()

let on_readable t s =
  reserve s.inq read_chunk;
  match Unix.read s.fd s.inq.q_buf s.inq.q_len read_chunk with
  | 0 ->
      (* the peer sends no more: flush what it was answered, then hang up *)
      if queued s.inq > 0 then protocol_error s "truncated frame: peer closed mid-frame"
      else s.closing <- true;
      pump t s
  | n ->
      s.inq.q_len <- s.inq.q_len + n;
      s.read_at <- Unix.gettimeofday ();
      pump t s
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_session t s

(* A request that raises takes down its own session, never the loop. *)
let guarded t s f =
  try f t s
  with e ->
    Flightrec.record
      ~attrs:[ ("sid", string_of_int s.sid); ("exn", Printexc.to_string e) ]
      "conn.error";
    match Hashtbl.find_opt t.sessions s.fd with
    | Some live when live == s -> close_session t s
    | _ -> ()

let register_conn t fd =
  Unix.set_nonblock fd;
  Metrics.incr m_conns;
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
      partial_since = infinity;
      read_at = 0.;
      inq = queue ();
      outq = queue ();
      closing = false;
    }
  in
  Hashtbl.replace t.sessions fd s;
  let live = Atomic.fetch_and_add t.live 1 + 1 in
  Metrics.set_gauge g_active (float_of_int live);
  Flightrec.record ~attrs:[ ("sid", string_of_int sid) ] "conn.open"

(* [Unix.select] cannot watch a descriptor past its set size (EINVAL):
   such a connection is refused at once instead of poisoning every
   later select. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

let accept_pending t =
  let rec go n =
    if n > 0 then
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          if selectable fd then register_conn t fd
          else begin
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Flightrec.record "conn.refused"
          end;
          go (n - 1)
      | exception Unix.Unix_error _ -> ()
  in
  go 64

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

let tick = 0.1

let sessions_list t = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []

(* Close sessions past their read or idle deadline; the earliest
   deadline still ahead bounds the next select. *)
let expire t now =
  List.fold_left
    (fun next s ->
      let frame_due = s.partial_since +. t.cfg.read_timeout in
      let idle_due = s.last_active +. t.cfg.idle_timeout in
      if now >= frame_due then begin
        s.partial_since <- infinity;
        protocol_error s "read timeout mid-frame";
        guarded t s pump;
        next
      end
      else if now >= idle_due then begin
        Metrics.incr m_idle_closed;
        Flightrec.record ~attrs:[ ("sid", string_of_int s.sid) ] "conn.idle_close";
        guarded t s close_session;
        next
      end
      else Float.min next (Float.min frame_due idle_due))
    (now +. tick) (sessions_list t)

let unbind t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

let begin_drain t =
  Flightrec.record
    ~attrs:[ ("live", string_of_int (Atomic.get t.live)) ]
    "server.drain.begin";
  unbind t

(* past the drain deadline: abort the open transactions, hang up *)
let force_drain t =
  let stragglers = sessions_list t in
  Flightrec.record
    ~attrs:[ ("stragglers", string_of_int (List.length stragglers)) ]
    "server.drain.force";
  List.iter
    (fun s ->
      if s.txn <> None then begin
        abort_open_txn t s;
        t.forced <- t.forced + 1;
        Metrics.incr m_forced_aborts;
        Flightrec.record ~attrs:[ ("sid", string_of_int s.sid) ] "txn.forced_abort"
      end;
      close_session t s)
    stragglers

(* The loop failed outside any one session's request (a select error, a
   bookkeeping fault): record it, hang up on everyone and unbind, and
   flag the stop, so the caller polling {!stop_requested} calls {!stop},
   whose join re-raises the failure. *)
let crash t e =
  Flightrec.record ~attrs:[ ("exn", Printexc.to_string e) ] "server.loop.crash";
  Atomic.set t.stopping true;
  List.iter (fun s -> try close_session t s with _ -> ()) (sessions_list t);
  unbind t

let run t =
  let drain_from = ref infinity in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    if !drain_from = infinity && Atomic.get t.stopping then begin
      drain_from := now;
      begin_drain t
    end;
    let draining = !drain_from < infinity in
    if draining then
      List.iter
        (fun s ->
          if not (must_linger t s) then begin
            s.closing <- true;
            if queued s.outq = 0 then close_session t s
          end)
        (sessions_list t);
    let next = expire t now in
    if draining && Hashtbl.length t.sessions = 0 then finished := true
    else if draining && now >= !drain_from +. t.cfg.drain_deadline then begin
      force_drain t;
      finished := true
    end
    else begin
      let next = if draining then Float.min next (!drain_from +. t.cfg.drain_deadline) else next in
      let reads, writes =
        Hashtbl.fold
          (fun fd s (r, w) ->
            ( (if s.closing || queued s.outq >= out_high_water then r else fd :: r),
              if queued s.outq > 0 then fd :: w else w ))
          t.sessions
          ((if draining then [] else [ t.listen_fd ]), [])
      in
      match Unix.select reads writes [] (Float.max 0. (next -. now)) with
      | readable, writable, _ ->
          List.iter
            (fun fd ->
              if fd = t.listen_fd && not draining then accept_pending t
              else
                match Hashtbl.find_opt t.sessions fd with
                | Some s -> guarded t s on_readable
                | None -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.sessions fd with
              | Some s -> guarded t s pump
              | None -> ())
            writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  t.drain_time <- Unix.gettimeofday () -. !drain_from;
  Metrics.set_gauge g_drain t.drain_time;
  Flightrec.record
    ~attrs:
      [
        ("seconds", Printf.sprintf "%.3f" t.drain_time);
        ("forced", string_of_int t.forced);
      ]
    "server.drain.done"

(* a peer that hangs up mid-response would otherwise kill the host
   process with SIGPIPE; writes report EPIPE instead once it is ignored *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let start cfg db =
  ignore_sigpipe ();
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
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
      listen_fd;
      stopping = Atomic.make false;
      sessions = Hashtbl.create 64;
      live = Atomic.make 0;
      next_sid = 1;
      loop = None;
      drain_time = 0.;
      forced = 0;
      slowlog = Atomic.make [];
    }
  in
  Flightrec.record ~attrs:[ ("socket", cfg.socket_path) ] "server.start";
  t.loop <-
    Some
      (Sys_domain.spawn (fun () ->
           try run t
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             crash t e;
             Printexc.raise_with_backtrace e bt));
  t

let stop t =
  request_stop t;
  match t.loop with
  | None -> ()
  | Some d ->
      t.loop <- None;
      Sys_domain.join d
