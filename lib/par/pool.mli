(** Domain-pool work scheduler: chunked fan-out with deterministic
    merge order.

    The pool keeps a set of long-lived worker domains (grown lazily,
    never shrunk before process exit) behind a shared batch queue.  A
    batch is an array of tasks; the submitting domain enqueues it,
    then {e helps}: submitter and workers race on an atomic chunk
    cursor, so a batch completes even if every pool worker is busy
    with someone else's batch.  Tasks of one batch may run on any
    domain and in any order — determinism is the {e caller's} shape:
    chunk a sequence contiguously, give each task its own result slot,
    and concatenate slots in chunk order ({!filter_list} does exactly
    this, and is the shape `Query.select ~jobs` runs on).

    Observability ([par.*] in {!Compo_obs.Metrics}):
    [par.tasks] parallel batches run; [par.chunks] chunks fanned out;
    [par.chunks.stolen] chunks executed by a pool worker rather than
    the submitter; [par.merge.seconds] deterministic-merge time;
    [par.busy.ratio] busy-time / (wall x jobs) of the last batch;
    [par.workers] live pool workers. *)

val max_jobs : int
(** Hard cap on [jobs] (and therefore on pool workers): 64. *)

val parse_jobs : string -> (int, string) result
(** Strict parse of a user-supplied job count: an integer >= 1 (clamped
    to {!max_jobs}), anything else a one-line error ("must be a positive
    integer (got '...')").  Front ends (CLI flags, server options)
    should use this and report; the lenient {!default_jobs} below stays
    the library-level behaviour. *)

val env_jobs : unit -> (int option, string) result
(** {!parse_jobs} applied to [COMPO_JOBS]; [Ok None] when unset. *)

val default_jobs : unit -> int
(** [COMPO_JOBS] when set to an integer >= 1 (clamped to {!max_jobs}),
    else 1.  Unset, unparsable or out-of-range values mean 1 (library
    behaviour; front ends reject instead via {!parse_jobs}). *)

val effective_jobs : int option -> int
(** Resolve an optional explicit [jobs] against the environment
    default: [Some j] clamps [j] to [1 .. max_jobs], [None] is
    {!default_jobs}. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware can
    actually run in parallel.  Bench gates use it for the low-core
    escape hatch. *)

val run : jobs:int -> (unit -> unit) array -> unit
(** Run every task of the batch, using up to [jobs] domains including
    the caller.  Returns when all tasks have finished.  If any task
    raises, the first exception observed is re-raised after the whole
    batch has drained (remaining tasks still run).  [jobs <= 1] or a
    batch of one task degenerates to a sequential loop on the caller.

    Tasks must be domain-safe: they may run on pool domains and must
    not assume they run on the domain that submitted them. *)

val filter_list : jobs:int -> ('a -> bool) -> 'a list -> 'a list
(** Order-preserving parallel filter: contiguous chunks fan out across
    domains, per-chunk results merge in chunk order, so the output is
    exactly [List.filter pred xs] whenever [pred] is pure.  Small
    inputs (under one chunk of ~16) and [jobs <= 1] run sequentially
    on the caller. *)

val iter_range : jobs:int -> int -> (int -> int -> unit) -> unit
(** [iter_range ~jobs n f] covers [[0, n)] with disjoint ranges in the
    filters' chunk shape and runs [f lo hi] once per range [[lo, hi)],
    fanned out over the pool: the caller loops inside [f], so a chunk
    costs one call, not one per index.  [f] must be domain-safe and each
    index must own its writes (distinct result slots); there is no merge
    step and no ordering guarantee between chunks.  Small ranges and
    [jobs <= 1] run as one [f 0 n] on the caller.  The plan layer fills
    materialized-column cells and runs parallel compiled scans through
    this. *)

val shutdown : unit -> unit
(** Stop and join every pool worker.  Registered [at_exit]; safe to
    call more than once.  A later {!run} restarts the pool. *)
