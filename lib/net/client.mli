(** Blocking client for the compo wire protocol.

    {!connect} performs the [Open_session] handshake; the typed wrappers
    ({!get_attr}, {!select}, ...) each send one request and wait for its
    response.  For pipelining, {!send} and {!recv} are exposed directly:
    queue several requests, then drain the responses — the server
    answers in order and echoes each request's correlation id.

    A client is single-threaded state (correlation counter, socket);
    share one per thread, not one across threads. *)

open Compo_core

type error =
  | Remote of string  (** server-side operation failure; session is fine *)
  | Protocol of string  (** framing/version breakage; connection is dead *)
  | Io of string  (** socket-level failure *)

val error_to_string : error -> string

type t

val connect :
  ?user:string -> ?max_frame:int -> ?trace_sample:float -> string ->
  (t, error) result
(** [connect path] dials the Unix socket at [path] and opens a session.
    Sets [SIGPIPE] to ignore (non-Windows) so a server hangup surfaces
    as an [Io] error on the next call instead of killing the process.

    [trace_sample] (default 0) is the probability that a request is
    stamped with a fresh wire trace context; stamping only happens once
    the handshake showed the server speaks protocol v2, so a sampling
    client still interoperates with a v1 server. *)

val session_id : t -> int

val server_version : t -> int
(** Protocol version the server announced at the handshake. *)

val last_trace : t -> string option
(** Trace id of the most recent sampled request, if any — the handle a
    caller (or test) uses to find its spans server-side. *)

val parse_trace_sample : string -> (float, string) result
(** Strict sampling-rate validation: a float in [0,1], one-line error
    otherwise. *)

val trace_sample_from_env :
  ?getenv:(string -> string option) -> unit -> (float, string) result
(** [COMPO_TRACE_SAMPLE] via {!parse_trace_sample}; [Ok 0.] when unset.
    Entry points turn the [Error] into a one-line die. *)

val close : t -> unit
(** Best-effort [Close_session] then socket close.  Idempotent. *)

(** {1 Synchronous operations} *)

val ping : t -> (unit, error) result
val begin_txn : t -> (unit, error) result
val commit : t -> (unit, error) result
val abort : t -> (unit, error) result
val get_attr : t -> Surrogate.t -> string -> (Value.t, error) result
val set_attr : t -> Surrogate.t -> string -> Value.t -> (unit, error) result

val select :
  t -> cls:string -> ?where:Expr.t -> unit ->
  (Surrogate.t list, error) result

val explain : t -> cls:string -> ?where:Expr.t -> unit -> (string, error) result

val stats : t -> Protocol.stats_format -> (string, error) result
(** The server's metrics registry, rendered server-side. *)

val slowlog : t -> (string, error) result
(** The server's slow-query capture ring, rendered server-side (plans
    included).  Requires a v2 server. *)

(** {1 Pipelining} *)

val send : t -> Protocol.request -> (int, error) result
(** Queue one request; returns its correlation id without waiting. *)

val recv : t -> (int * Protocol.response, error) result
(** Next response in arrival order, with the id it answers. *)
