(** Generation-stamped memo table for inherited-attribute resolution.

    The paper's view strategy resolves every inherited read through the
    binding chain, so a read pays one {!Store.get} plus one effective-attr
    lookup per transmitter hop (the O(depth) cost E2 measures).  This cache
    short-circuits repeated reads: a per-store table maps
    [(surrogate, attribute)] to the resolved value, and generation counters
    decide validity instead of eager per-entry eviction.

    Invalidation scheme (the generations):
    - every mutation of data a resolution may have read bumps a
      monotonically increasing generation counter;
    - every entry records its {e source}: the chain end its value came
      from (the entity whose own attribute was read, or the unbound end
      that yielded [Null]), and is valid while its generation is at or
      above both the global floor and its source's floor;
    - a {e scoped} bump (attribute write) raises the floor of the written
      entity only — O(1), whatever the size of its inheritor closure.
      Every entry resolved through the written attribute names the writer
      as its source and dies; every other entry survives.  This is exact
      because a resolved value depends only on the binding structure and
      on its source's local value: inherited attributes cannot be written
      ([Inherited_readonly]), and every structural change bumps globally;
    - a {e global} bump (bind, unbind, delete, participant rewiring,
      schema evolution, transaction abort) clears the table outright;
    - a fill records the generation captured {e before} the chain walk
      started, so a fill that raced an invalidation is dead on arrival
      ("stale fills die").

    The cache must never be consulted while read hooks are installed: the
    transaction layer turns per-hop read notifications into the paper's
    reverse lock inheritance, and a memoised read performs no hops.
    {!Store.resolve_cache_active} enforces this; it is why transactional
    reads always walk.

    Domain safety: the generation and global floor are atomics, and the
    entry table is sharded per domain (each domain fills, hits and
    sweeps only its own shard), so reader domains resolve concurrently
    without locks and a reader's fill can never publish a stale value
    another domain's invalidation already killed.  Source floors and
    {!clear} are write-side operations: the store serialises them
    against readers with its write latch.

    Observability: [inheritance.cache.{lookup,hit,miss}] and
    [inheritance.cache.invalidate.{scoped,global}] counters plus an
    [inheritance.cache.size] gauge in the default metrics registry; each
    invalidation also runs under an [inheritance.cache.invalidation] span
    carrying its scope as an attribute, so churn is attributable from the
    trace ring alone. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] bounds the number of live entries per domain shard
    (default 65536); filling a full shard clears that shard first
    (epoch eviction).  [enabled] defaults to {!default_enabled}. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Disabling clears the table, so a later re-enable cannot serve values
    cached under the old generation regime. *)

val default_enabled : unit -> bool
(** Initial setting for new caches: [true] unless the
    [COMPO_NO_RESOLVE_CACHE] environment variable is set to a truthy value
    or {!set_default_enabled} was called with [false].  The CLI and bench
    harness [--no-resolve-cache] escape hatches go through this. *)

val set_default_enabled : bool -> unit

val generation : t -> int
(** Current generation.  Capture it {e before} a chain walk and pass it to
    {!fill}, so the fill dies if anything invalidated meanwhile. *)

val find : t -> Surrogate.t -> string -> Value.t option
(** Valid cached resolution of [(surrogate, attribute)], or [None].
    Counts a hit or a miss; lazily drops entries below their source's
    floor or the global floor. *)

val fill : t -> gen:int -> src:Surrogate.t -> Surrogate.t -> string -> Value.t -> unit
(** Memoise a resolution of [(surrogate, attribute)] computed at
    generation [gen] whose value came from the chain end [src].  A no-op
    when the cache is disabled or [gen] is below [src]'s floor or the
    global floor. *)

val invalidate_scoped : t -> Surrogate.t -> unit
(** Raise the floor of exactly the given surrogate (a written entity):
    every entry whose value it sourced dies, everything else survives. *)

val invalidate_global : t -> unit
(** Structural change: drop every entry and bump the generation so
    in-flight fills die too. *)

val size : t -> int
(** Entries across every domain shard (including scoped-invalidated
    ones not yet swept). *)

val capacity : t -> int

val lookups : unit -> int
(** Process-wide lookup count ([find] calls on an enabled cache); every
    lookup is counted exactly once as a hit or a miss, so
    [lookups () = hits () + misses ()] even under concurrent load — the
    stress suite asserts this. *)

val hits : unit -> int
(** Process-wide hit count from the metrics registry (0 while metrics are
    disabled); convenience for [compo stats] and the bench harness. *)

val misses : unit -> int

val invalidations_scoped : unit -> int
(** Floor raises of a single written entity (one per attribute write). *)

val invalidations_global : unit -> int
(** Whole-table clears from structural change. *)

val invalidations : unit -> int
(** Sum of the scoped and global counts. *)
