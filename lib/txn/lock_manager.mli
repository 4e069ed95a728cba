(** Lock tables with deadlock detection.

    Designed for the simulated concurrency of a single-process design
    database: {!acquire} either grants immediately, reports [`Blocked]
    (after recording the waits-for edges so a later retry can succeed once
    the holder releases), or fails with [Lock_error] when waiting would
    close a cycle in the waits-for graph (deadlock). *)

open Compo_core

type txn_id = int
type t

val create : unit -> t

val acquire :
  t -> txn:txn_id -> Surrogate.t -> Lock.mode ->
  ([ `Granted | `Blocked of txn_id list ], Errors.t) result
(** Re-acquiring by the same transaction upgrades to the supremum of the
    held and requested modes.  [`Blocked holders] names the conflicting
    transactions; a deadlock is a [Lock_error]. *)

val acquire_exn : t -> txn:txn_id -> Surrogate.t -> Lock.mode -> unit
(** Like {!acquire} but raises [Compo_error] on [`Blocked] as well —
    used by the transaction layer's hooks, which cannot return results. *)

val release_all : t -> txn:txn_id -> unit
(** Two-phase: all locks of a transaction go at commit/abort.  Clears its
    waits-for edges. *)

val holds : t -> txn:txn_id -> Surrogate.t -> Lock.mode option
val holders : t -> Surrogate.t -> (txn_id * Lock.mode) list
val locks_of : t -> txn:txn_id -> (Surrogate.t * Lock.mode) list
(** In descending surrogate order. *)

val lock_count : t -> int

val waits_for : t -> txn:txn_id -> txn_id list
(** Current outgoing waits-for edges (for conflict diagnosis and tests). *)
