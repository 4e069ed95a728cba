(* loadgen: drive compo-server with many concurrent connections.

     loadgen [--socket PATH] [--connections 1,8,32,64,128] [--duration S]
             [--pipeline N] [--populate N] [--json FILE] [--check]

   Without --socket the generator self-hosts: it boots an in-process
   server over a gates-scenario store (one interface, --populate bound
   implementations) on a temporary socket, runs every connection-count
   point against it, then stops the server and reports the drain.  With
   --socket it drives an external compo-server and skips the drain row.

   Each connection is one session on one thread running a CAD-ish mix:
   mostly inherited-attribute reads (Length resolves through the
   implementation's interface binding), an occasional select
   over the Implementations extent, and an occasional
   begin/set/commit transaction on a thread-distinct target.  Every
   request's wall time is kept as a raw sample; the JSON report (E19,
   BENCH_server.json) carries throughput and p50/p99/p999 per connection
   count, each the nearest-rank value of the sorted samples.  --check
   exits non-zero if any protocol error occurred — the CI soak gate. *)

module Metrics = Compo_obs.Metrics
module Server = Compo_net.Server
module Client = Compo_net.Client
open Compo_core

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let ok = function
  | Ok v -> v
  | Error e ->
      say "loadgen: %s" (Errors.to_string e);
      exit 1

let cok = function
  | Ok v -> v
  | Error e ->
      say "loadgen: %s" (Client.error_to_string e);
      exit 1

(* ------------------------------------------------------------------ *)
(* One measurement point                                               *)

type point = {
  connections : int;
  wall : float;
  requests : int;
  app_errors : int;
  proto_errors : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

(* Raw per-request latencies in seconds: one buffer per worker and
   opcode, so the hot path takes no lock. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted_samples parts =
  let a = Array.concat (List.map (fun s -> Array.sub s.data 0 s.len) parts) in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least [q] of them at or
   below it *)
let percentile_us sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) *. 1e6

(* Per-opcode latency families in the *default* registry: they
   accumulate over the whole run and land in the final
   BENCH_server.metrics.json snapshot, the client-side breakdown. *)
let loadgen_ops = [ "get_attr"; "select"; "begin"; "set_attr"; "commit" ]

let op_hists =
  List.map
    (fun name ->
      (name, Metrics.histogram ("net.client.request.seconds." ^ name)))
    loadgen_ops

let op_hist name = List.assoc name op_hists

(* the worker op mix, shared by sync and pipelined modes; [own] holds
   this worker's samples, one buffer per opcode *)
let run_worker ~socket ~trace_sample ~stop_at ~targets ~own ~requests
    ~app_errors ~proto_errors ~pipeline tid =
  match
    Client.connect ~user:(Printf.sprintf "load-%d" tid) ~trace_sample socket
  with
  | Error _ -> Atomic.incr proto_errors
  | Ok c ->
      let n = Array.length targets in
      let target = targets.(tid mod n) in
      let where = Expr.(path [ "Length" ] >= int 0) in
      let sample op dt =
        push (List.assoc op own) dt;
        Metrics.observe (op_hist op) dt
      in
      let record op t0 =
        sample op (Unix.gettimeofday () -. t0);
        Atomic.incr requests
      in
      let count_err (r : (_, Client.error) result) =
        match r with
        | Ok _ -> ()
        | Error (Client.Remote _) -> Atomic.incr app_errors
        | Error (Client.Protocol _) | Error (Client.Io _) ->
            Atomic.incr proto_errors
      in
      let sync name op =
        let t0 = Unix.gettimeofday () in
        let r = op () in
        record name t0;
        count_err r
      in
      let k = ref (tid * 7919) in
      (try
         while Unix.gettimeofday () < stop_at do
           incr k;
           let i = !k in
           if i mod 64 = 63 then
             sync "select" (fun () ->
                 Client.select c ~cls:"Implementations" ~where ())
           else if i mod 16 = 15 then begin
             sync "begin" (fun () -> Client.begin_txn c);
             sync "set_attr" (fun () ->
                 Client.set_attr c target "TimeBehavior" (Value.Int (i land 7)));
             sync "commit" (fun () -> Client.commit c)
           end
           else if pipeline <= 1 then
             sync "get_attr" (fun () ->
                 Client.get_attr c targets.(i * 31 mod n) "Length")
           else begin
             (* pipelined burst: queue [pipeline] reads, then drain; the
                per-request latency is the burst wall over the burst *)
             let t0 = Unix.gettimeofday () in
             let sent = ref 0 in
             for j = 1 to pipeline do
               match
                 Client.send c
                   (Compo_net.Protocol.Get_attr
                      { obj = targets.((i + j) * 31 mod n); attr = "Length" })
               with
               | Ok _ -> incr sent
               | Error _ -> Atomic.incr proto_errors
             done;
             for _ = 1 to !sent do
               (match Client.recv c with
               | Ok (_, Compo_net.Protocol.App_error _) ->
                   Atomic.incr app_errors
               | Ok (_, Compo_net.Protocol.Protocol_error _) | Error _ ->
                   Atomic.incr proto_errors
               | Ok _ -> ());
               Atomic.incr requests
             done;
             if !sent > 0 then begin
               let per = (Unix.gettimeofday () -. t0) /. float_of_int !sent in
               for _ = 1 to !sent do
                 sample "get_attr" per
               done
             end
           end
         done
       with _ -> Atomic.incr proto_errors);
      Client.close c

let run_point ~socket ~trace_sample ~targets ~duration ~pipeline connections =
  let requests = Atomic.make 0
  and app_errors = Atomic.make 0
  and proto_errors = Atomic.make 0 in
  let per_worker =
    Array.init connections (fun _ ->
        List.map (fun op -> (op, samples ())) loadgen_ops)
  in
  let t0 = Unix.gettimeofday () in
  let stop_at = t0 +. duration in
  let threads =
    List.init connections (fun tid ->
        Thread.create
          (fun () ->
            run_worker ~socket ~trace_sample ~stop_at ~targets
              ~own:per_worker.(tid) ~requests ~app_errors ~proto_errors
              ~pipeline tid)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let sorted = sorted_samples (List.concat_map (List.map snd) (Array.to_list per_worker)) in
  ( {
      connections;
      wall;
      requests = Atomic.get requests;
      app_errors = Atomic.get app_errors;
      proto_errors = Atomic.get proto_errors;
      p50_us = percentile_us sorted 0.5;
      p99_us = percentile_us sorted 0.99;
      p999_us = percentile_us sorted 0.999;
    },
    per_worker )

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let write_json ~path ~socket ~self_hosted ~duration ~pipeline ~populate
    ~drain ~forced ~op_samples points =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"experiment\": \"E19\",\n";
  Buffer.add_string buf
    "  \"description\": \"server throughput and request latency vs \
     concurrent connections, gates scenario over the binary wire \
     protocol\",\n";
  Printf.bprintf buf "  \"socket\": %S,\n" socket;
  Printf.bprintf buf "  \"self_hosted\": %b,\n" self_hosted;
  Printf.bprintf buf "  \"duration_s\": %.2f,\n" duration;
  Printf.bprintf buf "  \"pipeline\": %d,\n" pipeline;
  Printf.bprintf buf "  \"population\": %d,\n" populate;
  Printf.bprintf buf "  \"cores\": %d,\n" (Stdlib.Domain.recommended_domain_count ());
  Buffer.add_string buf "  \"rows\": [\n";
  let n = List.length points in
  List.iteri
    (fun i p ->
      Printf.bprintf buf
        "    { \"connections\": %d, \"requests\": %d, \"rps\": %.1f, \
         \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, \
         \"app_errors\": %d, \"protocol_errors\": %d }%s\n"
        p.connections p.requests
        (float_of_int p.requests /. p.wall)
        p.p50_us p.p99_us p.p999_us p.app_errors p.proto_errors
        (if i = n - 1 then "" else ","))
    points;
  Buffer.add_string buf "  ],\n";
  let max_rps =
    List.fold_left
      (fun acc p -> Float.max acc (float_of_int p.requests /. p.wall))
      0. points
  in
  Printf.bprintf buf "  \"max_rps\": %.1f,\n" max_rps;
  (* whole-run per-opcode breakdown from the raw samples of every point *)
  Buffer.add_string buf "  \"per_op\": {\n";
  let per_op =
    List.filter_map
      (fun name ->
        let sorted = sorted_samples (List.map (List.assoc name) op_samples) in
        if Array.length sorted = 0 then None else Some (name, sorted))
      loadgen_ops
  in
  let n_ops = List.length per_op in
  List.iteri
    (fun i (name, sorted) ->
      Printf.bprintf buf
        "    %S: { \"count\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f, \
         \"p999_us\": %.1f }%s\n"
        name (Array.length sorted) (percentile_us sorted 0.5)
        (percentile_us sorted 0.99) (percentile_us sorted 0.999)
        (if i = n_ops - 1 then "" else ","))
    per_op;
  Buffer.add_string buf "  },\n";
  Printf.bprintf buf "  \"protocol_errors_total\": %d,\n"
    (List.fold_left (fun acc p -> acc + p.proto_errors) 0 points);
  Printf.bprintf buf "  \"drain_seconds\": %.3f,\n" drain;
  Printf.bprintf buf "  \"forced_aborts\": %d\n" forced;
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  say "wrote %s (%d points)" path n

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let usage () =
  say "usage: loadgen [--socket PATH] [--connections 1,8,32,64,128]";
  say "               [--duration S] [--pipeline N] [--populate N]";
  say "               [--json FILE] [--check]";
  exit 2

let () =
  let socket = ref None in
  let connections = ref [ 1; 8; 32; 64; 128 ] in
  let duration = ref 3.0 in
  let pipeline = ref 1 in
  let populate = ref 512 in
  let json = ref "BENCH_server.json" in
  let check = ref false in
  let rec parse = function
    | [] -> ()
    | "--socket" :: v :: rest ->
        socket := Some v;
        parse rest
    | "--connections" :: v :: rest -> (
        match
          List.map int_of_string_opt (String.split_on_char ',' (String.trim v))
        with
        | cs when cs <> [] && List.for_all (fun c -> c <> None) cs ->
            connections := List.map Option.get cs;
            parse rest
        | _ -> usage ())
    | "--duration" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f > 0. ->
            duration := f;
            parse rest
        | _ -> usage ())
    | "--pipeline" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            pipeline := n;
            parse rest
        | _ -> usage ())
    | "--populate" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            populate := n;
            parse rest
        | _ -> usage ())
    | "--json" :: v :: rest ->
        json := v;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* telemetry env knobs, strict: a typo dies here, not mid-run *)
  let trace_sample =
    match Client.trace_sample_from_env () with
    | Ok v -> v
    | Error msg ->
        say "loadgen: %s" msg;
        exit 1
  in
  (match Compo_obs.Flightrec.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
      say "loadgen: %s" msg;
      exit 1);
  Metrics.enable ();
  (* self-host unless an external socket was given *)
  let self_hosted = !socket = None in
  let srv, socket_path =
    match !socket with
    | Some path -> (None, path)
    | None ->
        let path = Filename.temp_file "compo-loadgen" ".sock" in
        Sys.remove path;
        let db = Database.create () in
        ok (Compo_scenarios.Gates.define_schema db);
        ignore
          (ok (Compo_scenarios.Workload.interface_with_inheritors db ~n:!populate));
        let cfg = Server.default_config ~socket_path:path in
        let srv = Server.start cfg db in
        say "loadgen: self-hosted server on %s (%d implementations)" path
          !populate;
        (Some srv, path)
  in
  (* discover the extent once; every worker indexes into it *)
  let probe =
    cok (Client.connect ~user:"loadgen-probe" ~trace_sample socket_path)
  in
  let targets = Array.of_list (cok (Client.select probe ~cls:"Implementations" ())) in
  Client.close probe;
  if Array.length targets = 0 then begin
    say "loadgen: server has no Implementations extent to drive";
    exit 1
  end;
  say "%12s %10s %10s %12s %12s %12s %6s %6s" "connections" "requests" "rps"
    "p50_us" "p99_us" "p999_us" "app" "proto";
  let runs =
    List.map
      (fun c ->
        let p, op_samples =
          run_point ~socket:socket_path ~trace_sample ~targets
            ~duration:!duration ~pipeline:!pipeline c
        in
        say "%12d %10d %10.1f %12.1f %12.1f %12.1f %6d %6d" p.connections
          p.requests
          (float_of_int p.requests /. p.wall)
          p.p50_us p.p99_us p.p999_us p.app_errors p.proto_errors;
        (p, op_samples))
      !connections
  in
  let points = List.map fst runs in
  let op_samples = List.concat_map (fun (_, w) -> Array.to_list w) runs in
  let drain, forced =
    match srv with
    | None -> (0., 0)
    | Some srv ->
        Server.stop srv;
        say "loadgen: server drained in %.3f s (%d forced abort(s))"
          (Server.drain_seconds srv) (Server.forced_aborts srv);
        (Server.drain_seconds srv, Server.forced_aborts srv)
  in
  write_json ~path:!json ~socket:socket_path ~self_hosted ~duration:!duration
    ~pipeline:!pipeline ~populate:!populate ~drain ~forced ~op_samples points;
  (* the snapshot sits beside the report: BENCH_server.metrics.json for
     the default --json *)
  let snapshot = Filename.remove_extension !json ^ ".metrics.json" in
  Metrics.snapshot_to_file snapshot;
  say "wrote %s" snapshot;
  let proto_total = List.fold_left (fun acc p -> acc + p.proto_errors) 0 points in
  if !check then
    if proto_total > 0 then begin
      say "check: FAIL - %d protocol error(s)" proto_total;
      exit 1
    end
    else say "check: OK - zero protocol errors across %d point(s)"
           (List.length points)
