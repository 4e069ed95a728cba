(** Sessioned network service over a Unix-domain socket.

    One connection is one session; a session's [Begin] maps onto one
    design transaction over the store's S/X/IS/IX lock manager, so two
    designers connected to the same server conflict (and resolve) exactly
    as two in-process transactions do.

    Concurrency model: the kernel has a single owner.  {!start} spawns
    one domain that runs a [Unix.select] loop over the listen socket and
    every connection, and only that domain calls into the kernel while
    the server runs; the caller of {!start} must not touch the database
    until {!stop} returns.  Each connection has a nonblocking socket, an
    input buffer and an output buffer.  A request is served, to
    completion, once its whole frame has arrived; the requests of one
    connection are answered in arrival order, so clients may pipeline.
    Replies are queued and written as the socket accepts them, and a
    connection with more than 1 MiB of unread replies is neither read
    nor served until its peer reads.  Lock conflicts do not block (the
    manager fails conflicting acquisitions immediately), so no request
    ever waits inside the kernel for another session, and a peer that
    stalls mid-frame or never reads its replies stalls only itself.

    Shutdown ({!stop}) unbinds the listen socket, lets sessions with an
    open transaction keep working until [drain_deadline], force-aborts
    the stragglers, and disconnects everyone.  Sessions without an open
    transaction are closed once their answered requests are flushed.
    The read and idle timeouts and the drain are deadlines of the loop.

    Instrumented under [net.*]: connections (total/active/idle-closed),
    sessions, requests (total and per opcode), bytes in/out, request
    latency histogram, protocol and application errors, forced aborts,
    and drain time; under [server.gate.*], the time a complete request
    waited in the loop before the kernel took it ([wait_seconds]) and
    the kernel call itself ([hold_seconds]).  Those two keep the names
    of the gate mutex the loop replaced, because the benchmark's
    designer workload reads them.  The registry is only written when metrics are
    enabled; the server does not flip the global switch itself.

    The loop sets the trace slot ({!Compo_obs.Trace.set_current_trace})
    around each request whose wire frame carried a sampled trace
    context, and clears it afterwards, so the client's trace id reaches
    kernel spans and provenance records and one designer operation is
    reconstructable end to end from the trace ring.  Requests slower
    than {!Compo_obs.Trace.slow_threshold} ([COMPO_SLOW_MS]) get their
    [Query.explain] plan captured into a bounded ring served by the
    [Slowlog] opcode, and connection/transaction lifecycle events feed
    the {!Compo_obs.Flightrec} ring. *)

open Compo_core

type config = {
  socket_path : string;
  idle_timeout : float;  (** seconds before an idle session is dropped *)
  read_timeout : float;  (** budget for finishing a started frame *)
  drain_deadline : float;  (** grace for open transactions on [stop] *)
  max_frame : int;
  backlog : int;
}

val default_config : socket_path:string -> config
(** 300 s idle timeout, 10 s read timeout, 5 s drain
    deadline, {!Protocol.default_max_frame}, backlog 128. *)

type t

val start : config -> Database.t -> t
(** Bind, listen, and spawn the domain that runs the loop and owns the
    kernel until {!stop} returns.  Replaces a stale socket
    file at [socket_path].  Raises [Unix.Unix_error] when the path is
    unbindable.  Sets [SIGPIPE] to ignore (non-Windows) so a peer hanging
    up mid-response surfaces as [EPIPE] instead of killing the host. *)

val request_stop : t -> unit
(** Flag the server to stop; safe from a signal handler.  The drain
    itself runs in {!stop}. *)

val stop_requested : t -> bool
(** Also true once the loop has failed outside any one request: it
    hangs up on every session, unbinds, and flags the stop itself, and
    {!stop} re-raises the failure.  A caller that polls this function
    and then calls {!stop} sees the failure instead of a silent
    server. *)

val stop : t -> unit
(** Graceful shutdown: flag the loop, which closes the listen socket,
    drains sessions (see above) and records
    [net.shutdown.drain.seconds]; then join its domain, re-raising the
    loop's failure if it had one.  Idempotent. *)

val active_connections : t -> int
val drain_seconds : t -> float
(** Wall time the last {!stop} spent draining; 0 before. *)

val forced_aborts : t -> int
(** Transactions the last {!stop} had to abort past the deadline. *)

(** {1 Slow-query capture} *)

type slow_entry = {
  sq_ts : float;  (** capture time *)
  sq_op : string;  (** opcode name *)
  sq_seconds : float;  (** observed request duration *)
  sq_trace : string option;  (** wire trace id, when the frame had one *)
  sq_plan : string;  (** [Query.explain] report (select/explain) *)
}

val slowlog_entries : t -> slow_entry list
(** Captured slow requests, newest first (bounded at 64). *)
