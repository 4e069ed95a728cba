(** Tracing: nestable spans with a ring-buffer sink and a slow-op log.

    [with_span name f] times [f] on the wall clock, records a {!span}
    into a bounded ring buffer, feeds the duration into the latency
    histogram registered under [name] in {!Metrics.default_registry},
    and appends to the slow-op log when the duration exceeds the
    configured threshold.  When metrics are disabled ({!Metrics.enabled}
    is [false]) the whole layer is a no-op sink: [f] runs untimed and
    nothing is allocated. *)

type span = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_depth : int;      (** nesting depth at entry; 0 for a root span *)
  sp_start : float;    (** [Unix.gettimeofday] at entry *)
  sp_duration : float; (** wall seconds *)
}

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span.  Exceptions propagate; the span is recorded
    either way.  Spans nest: a [with_span] inside [f] records a deeper
    [sp_depth]. *)

val current_depth : unit -> int
(** Nesting depth of the running code (0 outside any span). *)

val note :
  ?attrs:(string * string) list -> string -> start:float -> duration:float ->
  unit
(** Record an externally timed span into the ring {e without} feeding a
    histogram (unlike {!with_span}) — for callers that measure an
    interval themselves and keep their own metric families, e.g. the
    server's per-request span.  No-op while metrics are off. *)

(** {1 Trace context}

    A wire-level trace id propagated from a client.  While set, every
    recorded span carries it as a [("trace", id)] attribute, so the
    kernel spans executed on behalf of one designer operation are
    reconstructable from the ring.  The slot is a single global, not
    domain-local: it is set by the kernel's single owner (the server's
    loop sets and clears it around each request; the CLI is
    single-threaded), so there is exactly one writer. *)

val set_current_trace : string option -> unit
val current_trace : unit -> string option

(** {1 Ring buffer} *)

val set_capacity : int -> unit
(** Resize the ring buffer (default 512) and drop its contents. *)

val recent : unit -> span list
(** Buffered spans, most recent first. *)

val recorded : unit -> int
(** Total spans recorded since the last {!clear} (not bounded by the
    ring capacity). *)

(** {1 Slow-op log} *)

val slow_threshold : unit -> float
val set_slow_threshold : float -> unit
(** Spans of duration >= the threshold (seconds) are copied into the
    slow-op log.  Default [infinity] (log nothing).  The log keeps the
    most recent 256 entries. *)

val slow_ops : unit -> span list
(** Slow spans, most recent first. *)

val configure_from_env : ?getenv:(string -> string option) -> unit -> unit
(** Read tracing configuration from the environment: [COMPO_SLOW_MS]
    (slow-op threshold in milliseconds) and [COMPO_TRACE_CAPACITY] (ring
    buffer size; resizing drops buffered spans).  Unset, unparsable or
    out-of-range variables leave the current setting untouched.  The CLI
    calls this at startup; [getenv] (default [Sys.getenv_opt]) is
    injectable for tests. *)

val clear : unit -> unit
(** Drop the ring buffer, the slow-op log and the recorded count.  Does
    not touch the metrics registry. *)

(** {1 Rendering} *)

val pp_span : Format.formatter -> span -> unit
val pp_spans : Format.formatter -> span list -> unit
