(* End-to-end tests for the network subsystem: a real server on a real
   Unix socket, driven through the client library (and, for the
   malformed-input cases, through raw frames).  The shutdown tests pin
   down the drain contract: a transaction open across [Server.stop] may
   still commit inside the drain window, and one that outlives the
   deadline is force-aborted with its writes rolled back. *)

open Compo_core
module Server = Compo_net.Server
module Client = Compo_net.Client
module P = Compo_net.Protocol

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)

let cok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client error: %s" (Client.error_to_string e)

let fresh_socket () =
  let path = Filename.temp_file "compo-net-test" ".sock" in
  Sys.remove path;
  path

(* boot a gates-scenario server on a throwaway socket, run [f], always
   stop the server (Server.stop is idempotent, so tests that stop it
   themselves are fine).  The server's loop owns [db] while it runs: a
   test reads [db] directly only between the replies of its own
   synchronous client, when the loop has no request to serve. *)
let with_server ?(drain = 5.) ?(idle = 300.) ?(read_timeout = 10.) f =
  let path = fresh_socket () in
  let db = Database.create () in
  ok (Compo_scenarios.Gates.define_schema db);
  let _iface, impls = ok (Compo_scenarios.Workload.interface_with_inheritors db ~n:8) in
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      idle_timeout = idle;
      read_timeout;
      drain_deadline = drain;
    }
  in
  let srv = Server.start cfg db in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f srv path db (Array.of_list impls))

let test_handshake_ping () =
  with_server (fun _srv path _db _impls ->
      let c = cok (Client.connect ~user:"alice" path) in
      Alcotest.(check bool) "session id assigned" true (Client.session_id c >= 1);
      cok (Client.ping c);
      Client.close c;
      Client.close c (* idempotent *))

let test_reads_match_database () =
  with_server (fun _srv path db impls ->
      let c = cok (Client.connect path) in
      Array.iter
        (fun impl ->
          let remote = cok (Client.get_attr c impl "Length") in
          let local = ok (Database.get_attr db impl "Length") in
          Alcotest.(check bool)
            "remote read equals in-process read" true
            (Value.equal remote local))
        impls;
      let where = Expr.(path [ "Length" ] >= int 0) in
      let remote = cok (Client.select c ~cls:"Implementations" ~where ()) in
      let local = ok (Database.select db ~cls:"Implementations" ~where ()) in
      Alcotest.(check (list int))
        "remote select equals in-process select"
        (List.map Surrogate.to_int local)
        (List.map Surrogate.to_int remote);
      let plan = cok (Client.explain c ~cls:"Implementations" ~where ()) in
      Alcotest.(check bool) "explain is non-empty" true (String.length plan > 0);
      Client.close c)

let test_autocommit_write () =
  with_server (fun _srv path db impls ->
      let c = cok (Client.connect path) in
      cok (Client.set_attr c impls.(0) "TimeBehavior" (Value.Int 4242));
      let v = ok (Database.get_attr db impls.(0) "TimeBehavior") in
      Alcotest.(check bool)
        "write outside a transaction is autocommitted" true
        (Value.equal v (Value.Int 4242));
      Client.close c)

let test_txn_commit_and_abort () =
  with_server (fun _srv path db impls ->
      let c = cok (Client.connect path) in
      cok (Client.begin_txn c);
      cok (Client.set_attr c impls.(1) "TimeBehavior" (Value.Int 21));
      cok (Client.commit c);
      Alcotest.(check bool)
        "committed value visible" true
        (Value.equal (ok (Database.get_attr db impls.(1) "TimeBehavior")) (Value.Int 21));
      cok (Client.begin_txn c);
      cok (Client.set_attr c impls.(1) "TimeBehavior" (Value.Int 33));
      cok (Client.abort c);
      Alcotest.(check bool)
        "aborted write rolled back" true
        (Value.equal (ok (Database.get_attr db impls.(1) "TimeBehavior")) (Value.Int 21));
      (* protocol-state errors are application errors, not disconnects *)
      (match Client.commit c with
      | Error (Client.Remote _) -> ()
      | Ok () -> Alcotest.fail "commit without begin must fail"
      | Error e -> Alcotest.failf "expected Remote, got %s" (Client.error_to_string e));
      cok (Client.ping c);
      Client.close c)

let test_lock_conflict_between_sessions () =
  with_server (fun _srv path _db impls ->
      let a = cok (Client.connect ~user:"a" path) in
      let b = cok (Client.connect ~user:"b" path) in
      cok (Client.begin_txn a);
      cok (Client.set_attr a impls.(2) "TimeBehavior" (Value.Int 1));
      cok (Client.begin_txn b);
      (match Client.set_attr b impls.(2) "TimeBehavior" (Value.Int 2) with
      | Error (Client.Remote msg) ->
          Alcotest.(check bool)
            "conflict surfaces as a non-empty server error" true
            (String.length msg > 0)
      | Ok () -> Alcotest.fail "conflicting write must be refused"
      | Error e -> Alcotest.failf "expected Remote, got %s" (Client.error_to_string e));
      cok (Client.commit a);
      (* a's locks are gone: b can retry and win now *)
      cok (Client.set_attr b impls.(2) "TimeBehavior" (Value.Int 2));
      cok (Client.commit b);
      Client.close a;
      Client.close b)

let test_pipelining () =
  with_server (fun _srv path _db impls ->
      let c = cok (Client.connect path) in
      let ids =
        List.init 8 (fun i ->
            cok
              (Client.send c
                 (P.Get_attr { obj = impls.(i mod 8); attr = "Length" })))
      in
      List.iter
        (fun sent ->
          let id, resp = cok (Client.recv c) in
          Alcotest.(check int) "responses arrive in request order" sent id;
          match resp with
          | P.Ok_value _ -> ()
          | _ -> Alcotest.fail "expected Ok_value")
        ids;
      Client.close c)

(* the wire Select keeps its [jobs] field as a hint the server ignores:
   a positive value selects what [None] selects, a non-positive one is
   an application error that leaves the session usable *)
let test_select_jobs_hint () =
  with_server (fun _srv path _db _impls ->
      let c = cok (Client.connect path) in
      let where = Some Expr.(path [ "Length" ] >= int 0) in
      let select jobs =
        let sent =
          cok (Client.send c (P.Select { cls = "Implementations"; where; jobs }))
        in
        let id, resp = cok (Client.recv c) in
        Alcotest.(check int) "response matches request" sent id;
        resp
      in
      let rows = function
        | P.Ok_rows rows -> List.map Surrogate.to_int rows
        | _ -> Alcotest.fail "expected Ok_rows"
      in
      let plain = rows (select None) in
      Alcotest.(check bool) "the select matches rows" true (plain <> []);
      Alcotest.(check (list int)) "jobs = Some 4 selects the same rows" plain
        (rows (select (Some 4)));
      (match select (Some 0) with
      | P.App_error msg ->
          Alcotest.(check bool)
            "names the bad hint" true
            (String.starts_with ~prefix:"jobs must be a positive integer" msg)
      | _ -> Alcotest.fail "jobs = Some 0 must be an App_error");
      Alcotest.(check (list int)) "the session is still usable" plain
        (rows (select None));
      cok (Client.ping c);
      Client.close c)

(* raw-socket helpers for the malformed-input tests *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let expect_protocol_error fd what =
  (match P.read_frame fd with
  | Ok body -> (
      match P.decode_response body with
      | Ok (_, P.Protocol_error _) -> ()
      | Ok _ -> Alcotest.failf "%s: expected Protocol_error" what
      | Error e -> Alcotest.failf "%s: undecodable response: %s" what e)
  | Error _ -> Alcotest.failf "%s: expected an error response before close" what);
  (* the server hangs up after answering a protocol error *)
  match P.read_frame fd with
  | Error `Eof -> Unix.close fd
  | Ok _ -> Alcotest.failf "%s: connection must be closed" what
  | Error _ -> Unix.close fd

let test_version_mismatch_rejected () =
  with_server (fun _srv path _db _impls ->
      let fd = raw_connect path in
      let bad =
        P.encode_request ~id:1
          (P.Open_session { magic = P.magic; version = P.version + 1; user = "x" })
      in
      P.write_frame fd bad;
      expect_protocol_error fd "version mismatch")

let test_garbage_frame_rejected () =
  with_server (fun _srv path _db _impls ->
      let fd = raw_connect path in
      P.write_frame fd "\x00\x01\x02garbage";
      expect_protocol_error fd "garbage frame")

let test_oversized_frame_rejected () =
  with_server (fun _srv path _db _impls ->
      let fd = raw_connect path in
      (* a length prefix far past max_frame; no body ever follows *)
      let prefix = Bytes.of_string "\xff\xff\xff\x7f" in
      ignore (Unix.write fd prefix 0 4);
      expect_protocol_error fd "oversized frame")

let test_idle_timeout_disconnects () =
  with_server ~idle:0.4 (fun _srv path _db _impls ->
      let c = cok (Client.connect path) in
      cok (Client.ping c);
      Thread.delay 1.2;
      (match Client.ping c with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "idle session must have been disconnected");
      Client.close c)

(* The loop must never wait on one peer.  A raw session: handshake,
   then frames by hand; [SO_RCVTIMEO] turns a server that stopped
   answering into a failed read instead of a hung test. *)
let raw_session path =
  let fd = raw_connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  P.write_frame fd
    (P.encode_request ~id:1
       (P.Open_session { magic = P.magic; version = P.version; user = "raw" }));
  (match P.read_frame fd with
  | Ok body -> (
      match P.decode_response body with
      | Ok (1, P.Ok_session _) -> ()
      | _ -> Alcotest.fail "raw handshake refused")
  | Error _ -> Alcotest.fail "raw handshake unanswered");
  fd

let raw_ping fd id =
  P.write_frame fd (P.encode_request ~id P.Ping);
  match P.read_frame fd with
  | Ok body -> (
      match P.decode_response body with
      | Ok (id', P.Ok_unit) when id' = id -> ()
      | _ -> Alcotest.fail "ping: unexpected response")
  | Error _ -> Alcotest.fail "ping unanswered: the loop is stuck on another peer"

let protocol_errors () = Compo_obs.Metrics.counter_value "net.protocol.errors"

(* a peer that sends half a frame and stalls holds up nobody, and is cut
   with a protocol error at [read_timeout] *)
let test_half_frame_stalls_only_itself () =
  let read_timeout = 1.0 in
  with_server ~read_timeout (fun _srv path _db _impls ->
      let module Metrics = Compo_obs.Metrics in
      Metrics.enable ();
      Fun.protect ~finally:Metrics.disable (fun () ->
          let before = protocol_errors () in
          let staller = raw_connect path in
          let frame = P.encode_request ~id:1 P.Ping in
          let len = String.length frame in
          let half = Bytes.create (4 + (len / 2)) in
          Bytes.set_int32_le half 0 (Int32.of_int len);
          Bytes.blit_string frame 0 half 4 (len / 2);
          ignore (Unix.write staller half 0 (Bytes.length half));
          let t0 = Unix.gettimeofday () in
          let other = raw_session path in
          for id = 2 to 21 do
            raw_ping other id;
            Thread.delay 0.02
          done;
          Alcotest.(check bool)
            "the other session was served before the staller's timeout" true
            (Unix.gettimeofday () -. t0 < read_timeout);
          expect_protocol_error staller "stalled half frame";
          Alcotest.(check bool)
            "the staller was cut at its read timeout, not before" true
            (Unix.gettimeofday () -. t0 >= 0.9 *. read_timeout);
          Alcotest.(check bool)
            "net.protocol.errors rose" true (protocol_errors () > before);
          raw_ping other 22;
          Unix.close other))

(* a client that pipelines and never reads its replies backs up into its
   own socket; another session is still served *)
let test_unread_replies_stall_only_their_reader () =
  with_server (fun _srv path _db impls ->
      let hog = raw_session path in
      Unix.set_nonblock hog;
      let frame id =
        let body =
          P.encode_request ~id (P.Get_attr { obj = impls.(id mod 8); attr = "Length" })
        in
        let b = Bytes.create (4 + String.length body) in
        Bytes.set_int32_le b 0 (Int32.of_int (String.length body));
        Bytes.blit_string body 0 b 4 (String.length body);
        b
      in
      (* write until the socket has refused more for 0.5 s: the server
         has stopped reading this peer *)
      let sent = ref 0 and idle = ref 0 and pending = ref Bytes.empty in
      let off = ref 0 in
      while !idle < 50 && !sent < 500_000 do
        if !off = Bytes.length !pending then begin
          incr sent;
          pending := frame (!sent + 1);
          off := 0
        end;
        match Unix.single_write hog !pending !off (Bytes.length !pending - !off) with
        | n ->
            off := !off + n;
            idle := 0
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            incr idle;
            Thread.delay 0.01
      done;
      Alcotest.(check bool) "the server pushed back" true (!idle >= 50);
      let other = raw_session path in
      for id = 2 to 11 do
        raw_ping other id
      done;
      Unix.close hog;
      raw_ping other 12;
      Unix.close other)

(* the loop times every request it serves twice: its wait in the loop
   ([server.gate.wait_seconds]) and its kernel call
   ([server.gate.hold_seconds]); perfbench's designer reads both *)
let test_loop_times_every_request () =
  with_server (fun _srv path _db impls ->
      let module Metrics = Compo_obs.Metrics in
      Metrics.enable ();
      Fun.protect ~finally:Metrics.disable (fun () ->
          let wait = Metrics.histogram "server.gate.wait_seconds"
          and hold = Metrics.histogram "server.gate.hold_seconds" in
          let counts () =
            (Metrics.counter_value "net.requests", Metrics.observations wait,
             Metrics.observations hold)
          in
          let r0, w0, h0 = counts () in
          let c = cok (Client.connect path) in
          let ids =
            List.init 8 (fun i ->
                cok (Client.send c (P.Get_attr { obj = impls.(i); attr = "Length" })))
          in
          List.iter (fun _ -> ignore (cok (Client.recv c))) ids;
          cok (Client.ping c);
          (* the ping's reply is queued after its timings are recorded *)
          let r1, w1, h1 = counts () in
          Client.close c;
          Alcotest.(check int) "open_session, 8 reads and a ping" 10 (r1 - r0);
          Alcotest.(check int) "one wait per request" (r1 - r0) (w1 - w0);
          Alcotest.(check int) "one hold per request" (r1 - r0) (h1 - h0);
          Alcotest.(check bool) "times are not negative" true
            (Metrics.sum wait >= 0. && Metrics.sum hold >= 0.)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* acceptance: a trace id sampled by the client shows up server-side in
   the span ring (server span + kernel spans) and in the
   provenance record of the inherited read it caused *)
let test_trace_propagation () =
  with_server (fun _srv path _db impls ->
      let module Metrics = Compo_obs.Metrics in
      let module Trace = Compo_obs.Trace in
      let module Prov = Compo_obs.Provenance in
      Metrics.enable ();
      Prov.enable ();
      Trace.clear ();
      Prov.clear ();
      Fun.protect
        ~finally:(fun () ->
          Prov.disable ();
          Metrics.disable ())
        (fun () ->
          let c = cok (Client.connect ~trace_sample:1.0 path) in
          Alcotest.(check int)
            "handshake announces the server's version" P.version
            (Client.server_version c);
          ignore (cok (Client.get_attr c impls.(0) "Length"));
          let tid =
            match Client.last_trace c with
            | Some id -> id
            | None -> Alcotest.fail "trace_sample=1.0 must stamp every request"
          in
          (* the client's response arrived, so the handler has recorded
             its spans and the provenance of the read *)
          let spans = Trace.recent () in
          Alcotest.(check bool)
            "the server request span carries the wire trace id" true
            (List.exists
               (fun (sp : Trace.span) ->
                 sp.Trace.sp_name = "net.server.request"
                 && List.mem ("trace", tid) sp.Trace.sp_attrs)
               spans);
          Alcotest.(check bool)
            "a kernel span carries the wire trace id" true
            (List.exists
               (fun (sp : Trace.span) ->
                 sp.Trace.sp_name <> "net.server.request"
                 && List.mem ("trace", tid) sp.Trace.sp_attrs)
               spans);
          (match Prov.last () with
          | Some read ->
              Alcotest.(check (option string))
                "provenance links the read to the wire trace" (Some tid)
                read.Prov.r_trace
          | None -> Alcotest.fail "inherited read must record provenance");
          Client.close c))

(* compatibility: a v1 client (no trace field, version = 1 handshake)
   still talks to the v2 server *)
let test_old_client_handshake () =
  with_server (fun _srv path _db impls ->
      let fd = raw_connect path in
      let expect what id' =
        match P.read_frame fd with
        | Ok body -> (
            match P.decode_response body with
            | Ok (id, resp) when id = id' -> resp
            | Ok (id, _) -> Alcotest.failf "%s: response id %d" what id
            | Error e -> Alcotest.failf "%s: undecodable: %s" what e)
        | Error _ -> Alcotest.failf "%s: no response" what
      in
      P.write_frame fd
        (P.encode_request ~id:1
           (P.Open_session { magic = P.magic; version = 1; user = "old" }));
      (match expect "v1 handshake" 1 with
      | P.Ok_session { server_version; _ } ->
          Alcotest.(check int)
            "server still announces its own version" P.version server_version
      | _ -> Alcotest.fail "v1 handshake must be accepted");
      (* plain v1 frames (no trailing trace field) keep working *)
      P.write_frame fd (P.encode_request ~id:2 P.Ping);
      (match expect "v1 ping" 2 with
      | P.Ok_unit -> ()
      | _ -> Alcotest.fail "expected Ok_unit");
      P.write_frame fd
        (P.encode_request ~id:3 (P.Get_attr { obj = impls.(0); attr = "Length" }));
      (match expect "v1 get_attr" 3 with
      | P.Ok_value _ -> ()
      | _ -> Alcotest.fail "expected Ok_value");
      Unix.close fd)

(* acceptance: a slow request's explain plan is captured and
   retrievable through the Slowlog opcode *)
let test_slowlog_capture () =
  with_server (fun srv path _db _impls ->
      let module Trace = Compo_obs.Trace in
      Trace.set_slow_threshold 0.;
      Fun.protect
        ~finally:(fun () -> Trace.set_slow_threshold infinity)
        (fun () ->
          let c = cok (Client.connect path) in
          let where = Expr.(path [ "Length" ] >= int 0) in
          ignore (cok (Client.select c ~cls:"Implementations" ~where ()));
          let text = cok (Client.slowlog c) in
          Alcotest.(check bool)
            "slowlog names the slow opcode" true (contains text "select");
          Alcotest.(check bool)
            "slowlog carries the captured plan" true (contains text "access:");
          let entries = Server.slowlog_entries srv in
          Alcotest.(check bool)
            "capture ring is non-empty" true (entries <> []);
          Alcotest.(check bool)
            "a captured select kept its plan" true
            (List.exists
               (fun (e : Server.slow_entry) ->
                 e.Server.sq_op = "select" && contains e.Server.sq_plan "access:")
               entries);
          Client.close c))

(* acceptance: a transaction held open across shutdown gets the drain
   window and its commit lands *)
let test_shutdown_drains_open_transaction () =
  with_server ~drain:5. (fun srv path db impls ->
      let c = cok (Client.connect path) in
      cok (Client.begin_txn c);
      cok (Client.set_attr c impls.(3) "TimeBehavior" (Value.Int 777));
      let stopper = Thread.create (fun () -> Server.stop srv) () in
      Thread.delay 0.3;
      (* server is draining: new connections are refused, but this
         session's transaction is still live and may commit *)
      cok (Client.commit c);
      Thread.join stopper;
      Alcotest.(check bool)
        "commit during drain is durable" true
        (Value.equal (ok (Database.get_attr db impls.(3) "TimeBehavior")) (Value.Int 777));
      Alcotest.(check int) "nothing was force-aborted" 0 (Server.forced_aborts srv);
      Alcotest.(check bool) "drain took measurable time" true (Server.drain_seconds srv > 0.);
      Client.close c)

(* acceptance: past the deadline the straggler is aborted and rolled back *)
let test_shutdown_aborts_straggler () =
  with_server ~drain:0.4 (fun srv path db impls ->
      let before = ok (Database.get_attr db impls.(4) "TimeBehavior") in
      let c = cok (Client.connect path) in
      cok (Client.begin_txn c);
      cok (Client.set_attr c impls.(4) "TimeBehavior" (Value.Int 31337));
      let stopper = Thread.create (fun () -> Server.stop srv) () in
      Thread.join stopper;
      Alcotest.(check int) "straggler was force-aborted" 1 (Server.forced_aborts srv);
      Alcotest.(check bool)
        "straggler's write rolled back" true
        (Value.equal (ok (Database.get_attr db impls.(4) "TimeBehavior")) before);
      Alcotest.(check int) "no sessions left" 0 (Server.active_connections srv);
      Client.close c)

let suite =
  ( "net",
    [
      Alcotest.test_case "handshake and ping" `Quick test_handshake_ping;
      Alcotest.test_case "reads match database" `Quick test_reads_match_database;
      Alcotest.test_case "autocommit write" `Quick test_autocommit_write;
      Alcotest.test_case "txn commit and abort" `Quick test_txn_commit_and_abort;
      Alcotest.test_case "lock conflict between sessions" `Quick
        test_lock_conflict_between_sessions;
      Alcotest.test_case "pipelining" `Quick test_pipelining;
      Alcotest.test_case "select jobs hint" `Quick test_select_jobs_hint;
      Alcotest.test_case "version mismatch rejected" `Quick
        test_version_mismatch_rejected;
      Alcotest.test_case "garbage frame rejected" `Quick
        test_garbage_frame_rejected;
      Alcotest.test_case "oversized frame rejected" `Quick
        test_oversized_frame_rejected;
      Alcotest.test_case "idle timeout disconnects" `Quick
        test_idle_timeout_disconnects;
      Alcotest.test_case "trace propagation" `Quick test_trace_propagation;
      Alcotest.test_case "old client handshake" `Quick
        test_old_client_handshake;
      Alcotest.test_case "slowlog capture" `Quick test_slowlog_capture;
      Alcotest.test_case "shutdown drains open transaction" `Quick
        test_shutdown_drains_open_transaction;
      Alcotest.test_case "shutdown aborts straggler" `Quick
        test_shutdown_aborts_straggler;
      Alcotest.test_case "half frame stalls only its sender" `Quick
        test_half_frame_stalls_only_itself;
      Alcotest.test_case "unread replies stall only their reader" `Quick
        test_unread_replies_stall_only_their_reader;
      Alcotest.test_case "loop times every request" `Quick
        test_loop_times_every_request;
    ] )
