(** Consistency checking for recovered databases.

    Three layers, each returning one human-readable message per
    violation (an empty list means consistent):

    - {!check_db} audits a single database: the store's structural
      invariants, surrogate-generator continuity (no live surrogate above
      the generator's high-water mark), schema resolution of every
      entity's type, and index/extent agreement.
    - {!diff} compares a recovered database against an in-memory oracle
      semantically: entity sets, local state, ownership, bindings, class
      extents, generator position, each inheritance link's staleness and
      stale note, and — down inheritance chains — the {e resolved} value
      of every effective attribute.
    - {!check_dir} recovers a journal directory and runs {!check_db} on
      the result, reporting recovery facts alongside the violations.
      This is [compo fsck]. *)

open Compo_core

val check_db : Database.t -> string list

val diff : oracle:Database.t -> Database.t -> string list
(** Violations in [db] relative to [oracle] (extra, missing, or diverging
    state).  Used by the crash-recovery torture harness to match a
    recovered database against a workload prefix. *)

type report = {
  fr_dir : string;
  fr_entities : int;
  fr_epoch : int;  (** snapshot/WAL generation recovered at *)
  fr_replayed : int;  (** WAL records replayed *)
  fr_clean : bool;  (** false when a torn WAL tail or header was skipped *)
  fr_stale_wal : bool;  (** true when a pre-checkpoint WAL was discarded *)
  fr_violations : string list;
}

val check_dir : string -> (report, Errors.t) result
(** Opens the directory (recovering it), audits the result, closes it
    again.  The error case is recovery itself failing — a report with
    violations is [Ok]. *)

val pp_report : Format.formatter -> report -> unit
