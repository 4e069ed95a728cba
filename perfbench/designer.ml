(* designer: design sessions against compo-server over the wire.

   The benchmark builds a journaled directory from the paper's gates
   schema (many interfaces, each with a family of implementations), saves
   it with [Snapshot.save], and starts [compo-server] on it as its own
   process.  Each session (one per core, at most two) is one client on
   its own thread, in a closed loop: a design step (begin, 6 inherited
   reads of its own implementations, one TimeBehavior write, commit), 8
   autocommit reads, and every [select_every]-th iteration a select over
   [Implementations] with an inherited-attribute predicate.  Targets are
   partitioned per session, so a lock conflict is a failure.  The
   sessions are threads of one domain rather than two domains: they
   spend their time waiting on the socket, and one domain keeps the
   client's minor collections from stopping both sessions at once. *)

open Compo_core
module Client = Compo_net.Client
module P = Compo_net.Protocol
module Gates = Compo_scenarios.Gates
open Common

(* Accept loops the server runs.  With one loop both sessions' handler
   threads share one domain, so which domain serves which connection
   cannot differ from run to run. *)
let accept_domains = 1

(* Iterations per select.  Each iteration's write adds a record to the
   server store's change log, which starts over every 512 records; the
   next select then rebuilds its plan column from scratch.  One select
   in every 2 iterations keeps those rebuilds at ~0.4% of the selects,
   so the select p99 is an ordinary select in every run; at one in 4 it
   was ~0.8%, on the edge of the p99. *)
let select_every = 2

type model = {
  impls : Surrogate.t array;
  iface_of : int array;  (** implementation -> interface index *)
  length : int array;  (** per interface *)
  width : int array;
  tb : int array;  (** committed TimeBehavior per implementation *)
}

let sizes cfg = match cfg.size with Full -> (64, 16) | Tiny -> (4, 4)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("designer setup: " ^ Errors.to_string e)

let build_db cfg dir =
  let rs = rng cfg 31 in
  let ifaces, family = sizes cfg in
  let db = Database.create () in
  ok (Gates.define_schema db);
  let pins = ok (Gates.new_pin_interface db ~pins:Gates.[ In; In; Out ]) in
  let length = Array.init ifaces (fun _ -> 10 + Random.State.int rs 90) in
  let width = Array.init ifaces (fun _ -> 1 + Random.State.int rs 10) in
  let n = ifaces * family in
  let iface_of = Array.init n (fun k -> k / family) in
  let tb = Array.init n (fun _ -> Random.State.int rs 100) in
  let impls = Array.make n (Surrogate.of_int 0) in
  for i = 0 to ifaces - 1 do
    let iface =
      ok (Gates.new_interface db ~pin_interface:pins ~length:length.(i) ~width:width.(i))
    in
    for f = 0 to family - 1 do
      let k = (i * family) + f in
      impls.(k) <- ok (Gates.new_implementation db ~interface:iface ~time_behavior:tb.(k) ())
    done
  done;
  fresh_dir dir;
  ok (Compo_storage.Snapshot.save (Filename.concat dir "snapshot.bin") db);
  { impls; iface_of; length; width; tb }

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

let live_servers : int list ref = ref []

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live_servers := List.filter (( <> ) pid) !live_servers

let () = at_exit (fun () -> List.iter stop_server !live_servers)

let start_server cfg dir =
  let sock = Filename.concat dir "srv.sock" in
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.server
      [| cfg.server; "--socket"; sock; "--quiet"; "--accept-domains";
         string_of_int accept_domains; dir |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live_servers := pid :: !live_servers;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec ready () =
    match Client.connect ~user:"probe" sock with
    | Ok c -> Client.close c
    | Error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_servers := List.filter (( <> ) pid) !live_servers;
            failwith "compo-server exited during start-up");
        if Unix.gettimeofday () > deadline then failwith "compo-server did not start";
        Unix.sleepf 0.002;
        ready ()
  in
  ready ();
  (pid, sock)

(* ------------------------------------------------------------------ *)
(* One session                                                         *)

type session = {
  c : Client.t;
  ph : phase;
  sp : Spans.t;
  send : Stats.t;  (** Client.send: encode and socket write *)
  wait : Stats.t;  (** Client.recv: server work plus transport *)
  mutable req_ns : int;  (** sum of request times, send + wait *)
  own : int array;  (** this session's implementations *)
  rs : Random.State.t;
}

exception Dead of string

(* One request, timed in two parts.  [into] takes the whole request's
   latency; spans are kept for sampled steps only ([step] >= 0). *)
let rpc s ~step ?into req =
  let t0 = Spans.now () in
  match Client.send s.c req with
  | Error e -> raise (Dead (Client.error_to_string e))
  | Ok _ -> (
      let t1 = Spans.now () in
      let r = Client.recv s.c in
      let t2 = Spans.now () in
      Stats.add s.send (t1 - t0);
      Stats.add s.wait (t2 - t1);
      s.req_ns <- s.req_ns + (t2 - t0);
      Option.iter (fun st -> Stats.add st (t2 - t0)) into;
      s.ph.ops <- s.ph.ops + 1;
      if step >= 0 then begin
        let id = Spans.fresh_id s.sp in
        Spans.record s.sp ~id ~step ~parent:step ("net." ^ P.request_op_name req) t0 t2;
        Spans.child s.sp ~step ~parent:id "net.client.send" t0 t1;
        Spans.child s.sp ~step ~parent:id "net.client.wait" t1 t2
      end;
      match r with
      | Ok (_, P.Protocol_error msg) -> raise (Dead msg)
      | Ok (_, resp) -> resp
      | Error e -> raise (Dead (Client.error_to_string e)))

let expect_unit s what = function
  | P.Ok_unit -> true
  | P.App_error msg ->
      fail s.ph (what ^ ": " ^ msg);
      false
  | _ ->
      fail s.ph (what ^ ": unexpected response");
      false

let read s m ~step ?into k attr =
  let expected =
    match attr with
    | "Length" -> m.length.(m.iface_of.(k))
    | "Width" -> m.width.(m.iface_of.(k))
    | _ -> m.tb.(k)
  in
  match rpc s ~step ?into (P.Get_attr { obj = m.impls.(k); attr }) with
  | P.Ok_value (Value.Int v) -> check s.ph (v = expected) ("designer: " ^ attr ^ " differs from model")
  | P.App_error msg -> fail s.ph ("designer get_attr: " ^ msg)
  | _ -> fail s.ph "designer get_attr: unexpected response"

let inherited s = if Random.State.bool s.rs then "Length" else "Width"
let pick s = s.own.(Random.State.int s.rs (Array.length s.own))

let loop s m ~deadline =
  let i = ref 0 in
  while tick s.ph < deadline do
    incr i;
    let step = Spans.step s.sp !i in
    let t0 = Spans.now () in
    let began = expect_unit s "designer begin" (rpc s ~step P.Begin) in
    for _ = 1 to 6 do
      read s m ~step ~into:s.ph.read (pick s) (inherited s)
    done;
    let k = pick s and v = Random.State.int s.rs 100 in
    let wrote =
      expect_unit s "designer set_attr"
        (rpc s ~step ~into:s.ph.write
           (P.Set_attr { obj = m.impls.(k); attr = "TimeBehavior"; value = Value.Int v }))
    in
    if began then
      if expect_unit s "designer commit" (rpc s ~step P.Commit) && wrote then
        m.tb.(k) <- v;
    let t1 = Spans.now () in
    Stats.add s.ph.txn (t1 - t0);
    Spans.record s.sp ~id:step ~step ~parent:(-1) "design_step" t0 t1;
    for _ = 1 to 7 do
      read s m ~step:(-1) ~into:s.ph.read (pick s) (inherited s)
    done;
    (* a local read that checks the committed writes *)
    read s m ~step:(-1) (pick s) "TimeBehavior";
    if !i mod select_every = 0 then begin
      let c = 10 + Random.State.int s.rs 90 in
      match
        rpc s ~step:(-1) ~into:s.ph.select
          (P.Select { cls = "Implementations"; where = Some (expr_ge "Length" c); jobs = Some 1 })
      with
      | P.Ok_rows rows ->
          excluded s.ph (fun () ->
              let expected = ref [] in
              Array.iteri
                (fun k id -> if m.length.(m.iface_of.(k)) >= c then expected := id :: !expected)
                m.impls;
              check s.ph
                (List.sort Surrogate.compare rows = List.sort Surrogate.compare !expected)
                "designer: select rows differ from model")
      | P.App_error msg -> fail s.ph ("designer select: " ^ msg)
      | _ -> fail s.ph "designer select: unexpected response"
    end
  done

let run_session s m ~seconds =
  let deadline = start s.ph ~seconds in
  (try loop s m ~deadline
   with Dead msg -> fail s.ph ("designer: connection lost: " ^ msg));
  finish s.ph

(* ------------------------------------------------------------------ *)

let server_counters c =
  match Client.stats c P.Fmt_json with
  | Error e -> failwith ("designer stats: " ^ Client.error_to_string e)
  | Ok text -> (
      match Kernel_counters.of_json text with
      | Ok snap -> snap
      | Error msg -> failwith ("designer stats: " ^ msg))

let measure cfg m clients ~traced ~seconds =
  let sessions =
    List.mapi
      (fun idx c ->
        {
          c;
          (* the probe would run in the client and miss the server's core *)
          ph = new_phase ~probe:false ();
          sp = Spans.create ~on:traced ~base:(idx * 1_000_000_000) ();
          send = Stats.create ();
          wait = Stats.create ();
          req_ns = 0;
          own =
            Array.of_list
              (List.filter (fun k -> k mod List.length clients = idx)
                 (List.init (Array.length m.impls) Fun.id));
          rs = rng cfg ((if traced then 200 else 100) + idx);
        })
      clients
  in
  let before = server_counters (List.hd clients) in
  (match sessions with
  | [ s ] -> run_session s m ~seconds
  | _ ->
      List.iter Thread.join
        (List.map (fun s -> Thread.create (fun () -> run_session s m ~seconds) ()) sessions));
  let after = server_counters (List.hd clients) in
  let ph = merge_phases (List.map (fun s -> s.ph) sessions) in
  let send = Stats.summarize (Stats.merge (List.map (fun s -> s.send) sessions)) in
  let wait = Stats.summarize (Stats.merge (List.map (fun s -> s.wait) sessions)) in
  let req_s = float_of_int (List.fold_left (fun acc s -> acc + s.req_ns) 0 sessions) /. 1e9 in
  let requests = send.n in
  let client_us = Stats.ratio (req_s *. 1e6) (float_of_int requests) in
  let server_us = Kernel_counters.mean_us ~before ~after "net.request.seconds" in
  let gate_wait = Kernel_counters.delta ~before ~after "server.gate.wait_seconds" in
  let layers =
    [
      ("net.client.send_us", Some (us send.mean));
      ("net.client.wait_p50_us", Some (us wait.p50));
      ("net.client.wait_p99_us", Some (us wait.p99));
      ("server.request_us", server_us);
      ("net.transport_us", Option.map (fun s -> client_us -. s) server_us);
      ("server.gate.wait_us", Kernel_counters.mean_us ~before ~after "server.gate.wait_seconds");
      ("server.gate.wait_share", Option.map (fun r -> Stats.ratio r.Kernel_counters.sum req_s) gate_wait);
      ("server.gate.hold_us", Kernel_counters.mean_us ~before ~after "server.gate.hold_seconds");
      ("inheritance.cache.hit_ratio", Kernel_counters.cache_hit_ratio ~before ~after);
    ]
  in
  {
    ph;
    wins = merge_windows (List.map (fun s -> windows s.ph) sessions);
    layers;
    notes =
      Printf.sprintf "sessions=%d (cores=%d) implementations=%d requests=%d accept_domains=%d"
        (List.length sessions) cfg.cores (Array.length m.impls) requests accept_domains
      :: write_spans cfg ~traced (List.map (fun s -> s.sp) sessions);
  }

(* The served state must match the model: every implementation's
   committed TimeBehavior, read back once the sessions are done. *)
let verify m c () =
  let bad = ref 0 in
  Array.iteri
    (fun k id ->
      match Client.get_attr c id "TimeBehavior" with
      | Ok (Value.Int v) when v = m.tb.(k) -> ()
      | _ -> incr bad)
    m.impls;
  ( !bad,
    [
      Printf.sprintf "verify: %d implementation(s) re-read, %d mismatch(es)"
        (Array.length m.impls) !bad;
    ] )

let run cfg =
  let (pid, sock, m), setup =
    timed_setup cfg
      ~build:(fun k ->
        let dir = Filename.concat cfg.work_dir (Printf.sprintf "designer-%d" k) in
        let m = build_db cfg dir in
        let pid, sock = start_server cfg dir in
        (pid, sock, m))
      ~release:(fun (pid, _, _) -> stop_server pid)
  in
  let sessions = max 1 (min 2 cfg.cores) in
  let clients =
    List.init sessions (fun i ->
        match Client.connect ~user:(Printf.sprintf "designer-%d" i) sock with
        | Ok c -> c
        | Error e -> failwith ("designer connect: " ^ Client.error_to_string e))
  in
  let shut () =
    List.iter Client.close clients;
    if List.mem pid !live_servers then stop_server pid
  in
  Fun.protect ~finally:shut (fun () ->
      drive cfg
        ~setup:(fun () ->
          shut ();
          setup ())
        ~measure:(measure cfg m clients)
        ~verify:(verify m (List.hd clients)))
