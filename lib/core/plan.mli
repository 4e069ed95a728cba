(** Compiled flat query plans for the inherited-read hot path, kept
    fresh by delta maintenance against the store's change log.

    The interpreted select walks an {!Expr} tree per candidate and an
    inheritance chain per hop ({!Eval} / {!Inheritance.attr}): per row it
    allocates an environment, re-derives the effective-attribute decision
    from the schema, and pointer-chases transmitter bindings.  E18 shows
    that this leaves too little work per candidate for the worker pool to
    win.  This module replaces the per-row machinery with flat plans,
    following Litwin's stored/inherited-relations model (PAPERS.md):

    {ol
    {- {b Adjacency registry}: the relationship graph flattened into
       dense arrays — one slot per entity, transmitter edges as [int]
       indexes — stamped with the store's {!Store.plan_epoch}.  A stale
       stamp is caught up by replaying {!Store.changes_since}: deletions
       tombstone their slot (compacted past a threshold, preserving slot
       order), creations append, rebinds re-derive the edge.  Only a
       window the sliding change log no longer holds or a
       {!Store.Ch_global} record forces the wholesale rebuild (counted
       in [plan.delta.rebuild]).}
    {- {b Closure compilation}: a predicate compiles to an array of
       closures once per query instead of being re-interpreted once per
       row.  Arithmetic goes through {!Eval.numeric_binop} and
       comparisons through {!Eval.compare_values}, so compiled semantics are bit-identical
       to interpreted semantics (a row is kept iff the interpreter would
       keep it — errors drop the row in both engines, [and]/[or]
       short-circuit identically).  The compilable subset covers the
       whole grammar: multi-segment paths fill flat along strict
       reference chains, and quantifiers ([count]/[sum]/[forall]/
       [exists], plus [in] over a path) materialize as
       interpreter-filled columns.}
    {- {b Materialized columns}: resolved values per (class, spec) — a
       select over an inherited attribute becomes a tight array scan.
       Each row records the resolution
       chain it read.  A value write moves no chain, so on a
       single-attribute column it refreshes, without a walk, the rows
       whose chains end at the written owner (counted in
       [plan.delta.refresh]); any other mutation dirties exactly the
       rows whose chains pass through the touched entity, and those
       re-walk ([plan.delta.cells]).  A dirty fraction past
       {!set_dirty_threshold} falls back to a from-scratch rebuild.
       Interpreter-filled cells (quantifiers, fallback shapes) are
       {e volatile}: any mutation at all refreshes them.}
    {- {b Numeric shadow}: every single-attribute column also keeps a
       [float array] with a per-row kind byte.  A cell that is an [Int]
       (as [float_of_int]) or a non-NaN [Real], and not an error, is
       valid there; [Null], strings, NaN and error cells stay boxed.
       This is exactly how {!Eval.compare_values} orders numbers (Int
       against Int or Real as floats, so 2{^53} + 1 = 2{^53}).  Every
       cell write goes through one helper that keeps the shadow
       current.}
    {- {b Numeric kernel}: a predicate [attr <cmp> numeric-const]
       (either side), or an [and] of such comparisons, compiles to
       leaves instead of closures, each fixed per operator at compile
       time as an interval test.  The scan runs one loop per leaf over
       the column's own rows, testing shadowed rows without a branch
       or a [Value.t], and boxed rows the way the closure program
       would; it then collects the passing members from the column.
       No per-row closure call, no copy of the extent list (that is
       forced only when a column is built or realigned).  Anything
       else runs the closure program.}}

    The compiled path stands down while read hooks are installed: hooks
    carry the per-hop notifications the transaction layer turns into
    lock inheritance, and a column scan performs no hops.

    The plan state belongs to its store and shares the store's single
    owner ({!Store}): a select brings it up to date, then scans it. *)

type report = {
  rp_closures : int;
      (** closures in the compiled predicate program (1 for the numeric
          kernel: its row test) *)
  rp_kernel : int;
      (** comparisons served by the numeric kernel; 0 when the closure
          program ran *)
  rp_columns : (string * int * bool) list;
      (** materialized columns used: (spec label, plan-epoch stamp,
          built from scratch by this call — [false] means served from
          cache or caught up by delta) *)
  rp_nodes : int;  (** adjacency registry size: live entities *)
  rp_edges : int;  (** adjacency registry size: transmitter edges *)
  rp_extent : int;  (** rows scanned: the class extent's size *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Escape hatch, modelled on {!Database.set_index_planning_enabled}.
    The initial state honours [COMPO_NO_COMPILE] (truthy = disabled) so
    the bench matrix can toggle the axis per subprocess. *)

val delta_enabled : unit -> bool
val set_delta_enabled : bool -> unit
(** Delta-maintenance escape hatch, honouring [COMPO_NO_DELTA] the same
    way: disabled means every stale stamp takes the wholesale-rebuild
    path (PR 9 behaviour), which is the E22 comparison baseline. *)

val configure_from_env :
  ?getenv:(string -> string option) -> unit -> (unit, string) result
(** Strict [COMPO_NO_COMPILE] / [COMPO_NO_DELTA] validation for front
    ends: [1/true/yes] disables, [0/false/no] enables, unset is a
    no-op, anything else is an error message for a one-line die (the
    [COMPO_TRACE_SAMPLE] convention). *)

val set_dirty_threshold : float -> unit
(** Dirty-fraction fallback knob: a column whose dirty rows exceed this
    fraction of its extent is rebuilt from scratch (counted in
    [plan.delta.rebuild]) instead of refilled cell by cell.  Default
    0.5; [0.] makes any dirty row rebuild, [>= 1.] never falls back. *)

val set_compact_min : int -> unit
(** Registry compaction floor: tombstones are squeezed out (preserving
    live-slot order) only when the registry has at least this many
    slots and a quarter of them are dead.  Default 64; tests lower it
    to force compactions on small stores.  Clamped to [>= 1]. *)

val try_scan :
  Store.t ->
  cls:string ->
  Expr.t ->
  (Surrogate.t list * report, Errors.t) result option
(** Compiled sequential-scan select over a class extent.  [None] means
    the compiled engine stands down (disabled, hooks installed, or
    unknown class) and the caller must run the interpreted plan.
    [Some rows] are bit-identical — order and membership — to the
    interpreted scan's.  The class is checked with
    {!Store.class_member_type}; the extent list is copied only when a
    column has to be built or realigned. *)

val compiled_scans : unit -> int
(** Process-wide count of selects served by the compiled engine
    (independent of the metrics registry; the differential oracle uses
    it to prove the compiled path actually engaged). *)

(** {2 Introspection for the property suite} *)

val registry_live : Store.t -> (Surrogate.t list * int) option
(** Live registry surrogates in slot order plus the current tombstone
    count, or [None] when no registry has been built.  The compaction
    property test pins that the live order is invariant across
    {!set_compact_min}-forced compactions. *)

val self_check : Store.t -> string list
(** The column-equivalence invariant, checked exhaustively: every
    delta-maintained structure whose stamp claims to be current must
    equal a from-scratch derivation — registry slots against live store
    entities and current transmitter bindings, column rows against the
    class extent, every cell's value, error mark and recorded chain
    against a fresh fill, each column's reverse-dependency map as
    the exact inverse of its chains, and each single-attribute column's
    numeric shadow (kind byte and float) against its boxed cells.  Returns
    human-readable problem descriptions; [[]] means consistent.  Stale
    structures (not yet caught up) are skipped, since they make no
    currency claim. *)
