(** The compo wire protocol: length-prefixed binary frames.

    A frame is a 4-byte little-endian unsigned length followed by that
    many body bytes.  Bodies are encoded with {!Compo_core.Binary} (the
    same primitives the persistence codec uses); values and predicate
    expressions travel in the {!Compo_storage.Codec} formats, so a
    client can ship any predicate [compo query] accepts.

    Every request carries a client-chosen correlation id; the response
    to it echoes that id.  Ids let a client pipeline requests: the
    server answers in arrival order, but the client does not have to
    block between sends.

    The first request on a connection must be [Open_session] carrying
    the protocol {!magic} and {!version}; anything else — and any frame
    that fails to decode — is answered with [Protocol_error] and the
    connection is closed.  See docs/SERVER.md for the full layout and
    lifecycle. *)

open Compo_core

val magic : string
(** First field of [Open_session]; rejects non-compo peers early. *)

val version : int
(** Protocol version this library speaks (2: optional trailing
    trace-context on requests, [Slowlog] opcode).  The server accepts
    any client version in [{!min_version}..{!version}] and answers the
    handshake with its own version, so a client knows at [Ok_session]
    time whether trace contexts may be attached. *)

val min_version : int
(** Oldest client version the server still accepts (1).  A v1 session
    simply never carries trace contexts — the trailing field is
    optional at the decoder, not negotiated per frame. *)

val default_max_frame : int
(** Upper bound on accepted frame bodies (16 MiB): a length prefix
    beyond it is treated as a protocol error, not an allocation. *)

type stats_format = Fmt_table | Fmt_json | Fmt_openmetrics | Fmt_line

type trace_ctx = { trace_id : string; sampled : bool }
(** Wire-level trace context: a client-generated id plus a sampling
    flag, carried as an optional trailing field on any request.  The
    field is self-describing at the decoder — a frame that ends at the
    payload simply has no context — so v1 clients interoperate without
    per-session decode state. *)

type request =
  | Open_session of { magic : string; version : int; user : string }
  | Ping
  | Begin
  | Commit
  | Abort
  | Get_attr of { obj : Surrogate.t; attr : string }
  | Set_attr of { obj : Surrogate.t; attr : string; value : Value.t }
  | Select of { cls : string; where : Expr.t option; jobs : int option }
      (** [jobs] is a retired parallelism hint, kept for wire
          compatibility: the server rejects [Some j] with [j < 1] and
          otherwise ignores it. *)
  | Explain of { cls : string; where : Expr.t option }
  | Stats of stats_format
  | Slowlog
      (** Fetch the server's slow-query capture ring as a text report
          (v2). *)
  | Close_session

type response =
  | Ok_unit
  | Ok_session of { session : int; server_version : int }
  | Ok_value of Value.t
  | Ok_rows of Surrogate.t list
  | Ok_text of string
  | App_error of string
      (** The operation failed but the session is fine (lock conflict,
          unknown attribute, ...). *)
  | Protocol_error of string
      (** The conversation itself is broken; the server closes the
          connection after sending this. *)

val request_op_name : request -> string
(** Stable lowercase opcode name, used for the per-opcode
    [net.requests.*] metric families. *)

(** {1 Body codecs} *)

val encode_request : ?trace:trace_ctx -> id:int -> request -> string
(** Without [?trace] the encoded bytes are identical to a v1 frame, so
    a v2 client that never samples is indistinguishable from v1. *)

val decode_request : string -> (int * request * trace_ctx option, string) result
val encode_response : id:int -> response -> string
val decode_response : string -> (int * response, string) result

(** {1 Frame transport} *)

val write_frame : Unix.file_descr -> string -> unit
(** Length prefix + body, written fully.  Raises [Unix.Unix_error] on a
    broken peer. *)

type read_error =
  [ `Eof  (** peer closed at a frame boundary *)
  | `Timeout  (** receive timeout with no prefix byte read (idle tick) *)
  | `Frame of string  (** oversized, truncated, or mid-frame stall *) ]

val read_frame :
  ?max_frame:int -> ?frame_deadline:float -> Unix.file_descr ->
  (string, read_error) result
(** Read one frame.  With [SO_RCVTIMEO] set on the socket, a timeout
    before the first prefix byte surfaces as [`Timeout] so callers can
    poll idle/shutdown conditions; once a frame has started, reads are
    retried until [frame_deadline] seconds have passed (default 10),
    after which the stalled frame is a [`Frame] error. *)
