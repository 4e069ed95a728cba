(** Sessioned network service over a Unix-domain socket.

    One connection is one session; a session's [Begin] maps onto one
    design transaction over the store's S/X/IS/IX lock manager, so two
    designers connected to the same server conflict (and resolve) exactly
    as two in-process transactions do.

    Concurrency model: a multi-domain accept loop hands each connection
    to a dedicated handler thread that does socket I/O only; every
    kernel entry (reads, writes, selects, transaction control) is
    serialised through one process-wide gate mutex.  The store's write
    latch is reentrant {e per domain}, and systhreads share their
    domain's id, so unguarded concurrent kernel calls from sibling
    threads would alias each other's latch ownership — the gate is the
    correctness boundary.  Lock conflicts do not
    block (the manager fails conflicting acquisitions immediately), so a
    session never holds the gate waiting on another session.

    Shutdown ({!stop}) unbinds the listen socket, lets sessions with an
    open transaction keep working until [drain_deadline], force-aborts
    the stragglers, and disconnects everyone.  Sessions without an open
    transaction are closed at their next idle tick or completed request.

    Instrumented under [net.*]: connections (total/active/idle-closed),
    sessions, requests (total and per opcode), bytes in/out, request
    latency histogram, protocol and application errors, forced aborts,
    and drain time.  The registry is only written when metrics are
    enabled; the server does not flip the global switch itself.

    The gate profiles itself under [server.gate.*]: wait-time and
    hold-time histograms (total and per opcode) plus a queue-depth
    gauge — the contention evidence the sharded-gate follow-up will be
    judged against.  A request whose wire frame carried a sampled trace
    context has the client's trace id threaded through the gate into
    kernel spans and provenance records, so one designer operation is
    reconstructable end to end from the trace ring.  Requests slower
    than {!Compo_obs.Trace.slow_threshold} ([COMPO_SLOW_MS]) get their
    [Query.explain] plan captured into a bounded ring served by the
    [Slowlog] opcode, and connection/transaction lifecycle events feed
    the {!Compo_obs.Flightrec} ring. *)

open Compo_core

type config = {
  socket_path : string;
  accept_domains : int;  (** parallel accept loops (default 2) *)
  idle_timeout : float;  (** seconds before an idle session is dropped *)
  read_timeout : float;  (** budget for finishing a started frame *)
  drain_deadline : float;  (** grace for open transactions on [stop] *)
  max_frame : int;
  backlog : int;
}

val default_config : socket_path:string -> config
(** 2 accept domains, 300 s idle timeout, 10 s read timeout, 5 s drain
    deadline, {!Protocol.default_max_frame}, backlog 128. *)

type t

val start : config -> Database.t -> t
(** Bind, listen, and spawn the accept domains.  Replaces a stale socket
    file at [socket_path].  Raises [Unix.Unix_error] when the path is
    unbindable.  Sets [SIGPIPE] to ignore (non-Windows) so a peer hanging
    up mid-response surfaces as [EPIPE] instead of killing the host. *)

val request_stop : t -> unit
(** Flag the server to stop; safe from a signal handler.  The drain
    itself runs in {!stop}. *)

val stop_requested : t -> bool

val stop : t -> unit
(** Graceful shutdown: join the acceptors, close the listen socket,
    drain sessions (see above), and record [net.shutdown.drain.seconds].
    Idempotent. *)

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
