(* types in the interface come from Compo_core; the body is transport only *)
module P = Protocol

type error = Remote of string | Protocol of string | Io of string

let error_to_string = function
  | Remote msg -> "remote: " ^ msg
  | Protocol msg -> "protocol: " ^ msg
  | Io msg -> "io: " ^ msg

type t = {
  fd : Unix.file_descr;
  max_frame : int;
  trace_sample : float;
  rng : Random.State.t;
  mutable next_id : int;
  mutable sid : int;
  mutable server_version : int;
  mutable last_trace : string option;
  mutable closed : bool;
}

let session_id c = c.sid
let server_version c = c.server_version
let last_trace c = c.last_trace

(* strict: a garbage sampling rate dies with one line at the entry
   points, never a silent fallback *)
let parse_trace_sample raw =
  let raw = String.trim raw in
  match float_of_string_opt raw with
  | Some f when f >= 0. && f <= 1. -> Ok f
  | Some _ | None ->
      Error (Printf.sprintf "must be a number in [0,1] (got '%s')" raw)

let trace_sample_from_env ?(getenv = Sys.getenv_opt) () =
  match getenv "COMPO_TRACE_SAMPLE" with
  | None -> Ok 0.
  | Some raw -> (
      match parse_trace_sample raw with
      | Ok _ as ok -> ok
      | Error msg -> Error ("COMPO_TRACE_SAMPLE " ^ msg))

let gen_trace_id rng =
  Printf.sprintf "%016Lx" (Random.State.int64 rng Int64.max_int)

let send c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  (* only stamp when the handshake proved the server speaks v2; an
     unsampled request omits the field entirely, so its frame bytes are
     identical to v1 *)
  let trace =
    if
      c.trace_sample > 0.
      && c.server_version >= 2
      && Random.State.float c.rng 1. < c.trace_sample
    then begin
      let trace_id = gen_trace_id c.rng in
      c.last_trace <- Some trace_id;
      Some { P.trace_id; sampled = true }
    end
    else None
  in
  match P.write_frame c.fd (P.encode_request ?trace ~id req) with
  | () -> Ok id
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

(* the client socket has no receive timeout, so [`Timeout] cannot occur
   here; a server that dies mid-response surfaces as [`Eof]/[`Frame] *)
let recv c =
  match P.read_frame ~max_frame:c.max_frame ~frame_deadline:30. c.fd with
  | Error `Eof -> Error (Io "connection closed by server")
  | Error `Timeout -> Error (Io "receive timeout")
  | Error (`Frame msg) -> Error (Protocol msg)
  | Ok body -> (
      match P.decode_response body with
      | Error msg -> Error (Protocol msg)
      | Ok (id, resp) -> Ok (id, resp))

let ( let* ) = Result.bind

(* one round trip, with the id echo checked *)
let rpc c req =
  let* id = send c req in
  let* rid, resp = recv c in
  if rid <> id then
    Error (Protocol (Printf.sprintf "response id %d for request %d" rid id))
  else Ok resp

let unexpected resp =
  match resp with
  | P.App_error msg -> Error (Remote msg)
  | P.Protocol_error msg -> Error (Protocol msg)
  | _ -> Error (Protocol "unexpected response payload")

let expect_unit c req =
  let* resp = rpc c req in
  match resp with P.Ok_unit -> Ok () | other -> unexpected other

let connect ?(user = "client") ?(max_frame = P.default_max_frame)
    ?(trace_sample = 0.) path =
  (* a server that hangs up (idle timeout, shutdown) must surface as an
     Io error on the next call, not kill the host process with SIGPIPE *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Io (Unix.error_message e))
      | () -> (
          let c =
            {
              fd;
              max_frame;
              trace_sample;
              rng = Random.State.make_self_init ();
              next_id = 1;
              sid = 0;
              server_version = 0;  (* unknown until the handshake answers *)
              last_trace = None;
              closed = false;
            }
          in
          match
            rpc c (P.Open_session { magic = P.magic; version = P.version; user })
          with
          | Ok (P.Ok_session { session; server_version }) ->
              c.sid <- session;
              c.server_version <- server_version;
              Ok c
          | Ok other ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Result.map (fun _ -> c) (unexpected other)
          | Error e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error e))

let close c =
  if not c.closed then begin
    c.closed <- true;
    ignore (expect_unit c P.Close_session);
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let ping c = expect_unit c P.Ping
let begin_txn c = expect_unit c P.Begin
let commit c = expect_unit c P.Commit
let abort c = expect_unit c P.Abort

let get_attr c obj attr =
  let* resp = rpc c (P.Get_attr { obj; attr }) in
  match resp with P.Ok_value v -> Ok v | other -> unexpected other

let set_attr c obj attr value = expect_unit c (P.Set_attr { obj; attr; value })

let select c ~cls ?where () =
  let* resp = rpc c (P.Select { cls; where; jobs = None }) in
  match resp with P.Ok_rows rows -> Ok rows | other -> unexpected other

let explain c ~cls ?where () =
  let* resp = rpc c (P.Explain { cls; where }) in
  match resp with P.Ok_text s -> Ok s | other -> unexpected other

let stats c fmt =
  let* resp = rpc c (P.Stats fmt) in
  match resp with P.Ok_text s -> Ok s | other -> unexpected other

let slowlog c =
  let* resp = rpc c P.Slowlog in
  match resp with P.Ok_text s -> Ok s | other -> unexpected other
