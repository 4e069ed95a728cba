(** Flight recorder: a bounded ring of structured runtime events.

    Where {!Metrics} aggregates and {!Trace} times, the flight recorder
    keeps the {e sequence}: connection lifecycle, transaction
    boundaries, drain phases, timeouts, forced aborts — the last few
    thousand things the process did, with timestamps and attributes, so
    an abnormal exit or a stuck server can be reconstructed after the
    fact.  The network server is the producer; [compo-server] dumps the
    ring as JSON on SIGUSR1 and on abnormal exit, and
    [compo flightrec FILE] pretty-prints a dump.

    Recording is a mutex-guarded array store with no global switch: the
    ring is always armed, because its value is highest precisely when
    nothing was set up in advance.  Events are connection-rate, never
    per-row. *)

type event = {
  ev_ts : float;  (** [Unix.gettimeofday] at the event *)
  ev_kind : string;  (** dotted lowercase kind, e.g. ["conn.open"] *)
  ev_attrs : (string * string) list;
}

val record : ?attrs:(string * string) list -> string -> unit
(** Append one event (kind + attributes) to the ring, overwriting the
    oldest entry once the capacity is reached. *)

val recent : unit -> event list
(** Buffered events, oldest first. *)

val recorded : unit -> int
(** Total events recorded since the last {!clear} (not bounded by the
    ring capacity). *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (default 4096) and drop its contents.  Raises
    [Invalid_argument] on a non-positive capacity. *)

val clear : unit -> unit

val parse_capacity : string -> (int, string) result
(** Strict capacity validation: positive integers only, one-line error
    otherwise. *)

val configure_from_env :
  ?getenv:(string -> string option) -> unit -> (unit, string) result
(** Apply [COMPO_FLIGHTREC_CAPACITY].  Unlike the lenient trace knobs,
    garbage is an [Error] the entry points turn into a one-line die —
    a mistyped capacity must not silently fall back to the default. *)

(** {1 JSON round trip}

    The dump format is a single object:
    [{"flightrec":1,"capacity":N,"recorded":M,"events":[...]}] with each
    event as [{"ts":...,"kind":"...","attrs":{...}}].  It parses back
    with {!Json_min} — the CI soak job asserts this on a live dump. *)

val to_json : unit -> string

val of_json : Json_min.t -> (event list, string) result
(** Events of a parsed dump, oldest first. *)

val dump_to_file : string -> (unit, string) result

(** {1 Rendering} *)

val pp_event : ?t0:float -> Format.formatter -> event -> unit
(** One line: seconds relative to [t0] (default absolute), kind,
    attributes. *)

val pp_events : Format.formatter -> event list -> unit
(** All events, timestamps relative to the first. *)
