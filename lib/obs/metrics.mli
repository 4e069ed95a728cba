(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    One registry is the single source of truth for runtime behaviour;
    every kernel layer reports into it.  Handles are created once (at
    module initialisation on the instrumentation sites) and incremented
    on the hot paths; an increment is a bounds-free mutation guarded by
    one global flag, so the disabled cost is a single load and branch.

    Collection is off by default.  {!enable} turns the global switch on;
    {!reset} zeroes every registered metric in place, so handles created
    before a reset stay valid (tests rely on this for isolation).

    The registry is domain-safe: counters and gauges are atomics (no
    lost increments under concurrent updates), histograms are sharded
    per domain and merged at snapshot time, and registration is
    serialised.  A snapshot taken while another domain is mid-update
    may miss in-flight increments but never tears a cell. *)

type registry

val create_registry : unit -> registry
(** A private registry, independent of {!default_registry}.  Useful for
    isolating measurements in tests. *)

val default_registry : registry
(** The process-wide registry all instrumentation sites report into. *)

(** {1 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Counters} *)

type counter

val counter : ?registry:registry -> string -> counter
(** Find-or-create the counter [name].  Raises [Invalid_argument] if the
    name is already registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?registry:registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val latency_buckets : float array
(** Default bucket upper bounds for latency histograms, in seconds:
    1us .. 10s on a 1-2.5-5 log scale. *)

val size_buckets : float array
(** Default bucket upper bounds for dimensionless sizes (depth, fan-out,
    extent): 1 .. 100k on a 1-2.5-5 log scale. *)

val histogram : ?registry:registry -> ?buckets:float array -> string -> histogram
(** Find-or-create a histogram with the given bucket upper bounds
    (default {!latency_buckets}).  [buckets] must be strictly increasing;
    it is only consulted on first creation. *)

val observe : histogram -> float -> unit
val observations : histogram -> int
val sum : histogram -> float

(** {1 Snapshot and reset} *)

type hist_snapshot = {
  h_buckets : (float * int) array;  (** (upper bound, count) per bucket *)
  h_overflow : int;                 (** observations above the last bound *)
  h_count : int;
  h_sum : float;
  h_min : float;                    (** [nan] when empty *)
  h_max : float;                    (** [nan] when empty *)
}

val quantile : hist_snapshot -> float -> float
(** Approximate quantile (0..1) from the bucket boundaries; [nan] when
    the histogram is empty. *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

val snapshot : ?registry:registry -> unit -> (string * metric) list
(** All registered metrics, sorted by name.  The snapshot is an immutable
    copy: later increments do not alter it. *)

val find : ?registry:registry -> string -> metric option
(** Snapshot of one metric by name. *)

val counter_value : ?registry:registry -> string -> int
(** Current value of the counter [name]; 0 when absent. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every registered metric in place.  Handles stay valid. *)

(** {1 Rendering} *)

val pp_dump : Format.formatter -> (string * metric) list -> unit
(** Human-readable table: counters and gauges one per line, histograms
    with count/mean/p50/p99/max. *)

val dump : ?registry:registry -> unit -> string
(** [pp_dump] of a fresh {!snapshot} as a string. *)

val to_line_protocol : ?registry:registry -> unit -> string
(** One line per metric in an influx-style line protocol:
    [compo,metric=NAME kind=...,count=...,sum=...]. *)

val ratio_string : ?scale:float -> num:int -> den:int -> unit -> string
(** Derived ratio as a percentage string ("82.4%"), or ["n/a"] when the
    denominator is zero — zero-read runs must not print [nan] or divide
    by zero.  [scale] defaults to 100 (percent). *)

(** {1 Exporters}

    Registry names are dotted ([inheritance.resolve.depth]); exported names
    sanitize to the exposition grammar under a [compo_] prefix
    ([compo_inheritance_resolve_depth]). *)

val to_openmetrics : ?registry:registry -> unit -> string
(** OpenMetrics text exposition of a fresh snapshot: counters as
    [_total] samples, gauges verbatim, histograms with {e cumulative}
    [_bucket{le="..."}] series closed by [+Inf] plus [_sum]/[_count];
    terminated by [# EOF].  [make obs-check] validates this output
    against the format grammar. *)

val to_json : ?registry:registry -> unit -> string
(** Stable JSON snapshot: [{"metrics": [...]}] sorted by name, one object
    per metric with [kind] and its values; histograms carry non-empty
    buckets as [{"le", "count"}] pairs plus [count]/[sum]/[min]/[max]
    ([null] when empty — never [nan]). *)

val snapshot_to_file : ?registry:registry -> string -> unit
(** Write {!to_json} to a file.  The bench harness drops one next to each
    [BENCH_*.json] so runs carry their metric snapshot. *)

val read_snapshot_file : string -> ((string * metric) list, string) result
(** Read a {!snapshot_to_file} file back.  The ablation-matrix runner
    uses this to pull key counters out of a cell subprocess's snapshot;
    histograms are reconstructed from the non-empty buckets the writer
    kept, so {!quantile} remains usable on them. *)

val metric_scalar : metric -> float
(** One headline number per metric for tabular diffing: a counter's
    value, a gauge's value, a histogram's observation count. *)
