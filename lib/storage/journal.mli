(** Durable databases: snapshot + write-ahead log + recovery.

    A journaled database lives in a directory holding [snapshot.bin],
    [wal.log] and a [LOCK] file.  {!open_dir} recovers by loading the
    snapshot (if any) and replaying the log's clean prefix; every mutating
    operation offered here is logged before it is applied.  {!checkpoint}
    collapses the log into a fresh snapshot.

    {2 Epoch pairing}

    Snapshot and log each carry an {e epoch}; a checkpoint cuts the
    snapshot at [epoch + 1] and then truncates the log to a header with
    the same epoch.  Recovery replays the log only when the epochs match:
    a crash between the snapshot rename and the truncation leaves a
    newer snapshot next to the old log, and the mismatch makes recovery
    discard that log as stale instead of re-applying checkpointed
    records (see {!recovered_from_stale_wal}).

    {2 Locking}

    The directory is exclusive: [LOCK] carries an OS advisory lock
    against other processes and an in-process registry rejects a second
    {!open_dir} of the same directory from this process.

    Failpoint sites ([journal.open.before_replay],
    [journal.open.mid_replay], [journal.open.after_replay],
    [journal.checkpoint.begin], [journal.checkpoint.before_truncate],
    [journal.checkpoint.after_truncate]) cover recovery and the
    checkpoint protocol; see {!Compo_faults.Failpoint} and
    docs/DURABILITY.md. *)

open Compo_core

type t

val open_dir : string -> (t, Errors.t) result
(** Creates the directory if needed.  Returns the recovered database
    handle, or an error if the directory is already open (here or in
    another process) or its files are unreadable.  On any failure the
    lock is released. *)

val db : t -> Database.t

val recovered_clean : t -> bool
(** False when recovery skipped a torn WAL tail or header. *)

val recovered_from_stale_wal : t -> bool
(** True when recovery discarded a pre-checkpoint log whose truncation a
    crash outran. *)

val wal_records_replayed : t -> int

val wal_epoch : t -> int
(** Current snapshot/log generation; starts at 0, bumped by
    {!checkpoint}. *)

(** {1 Logged schema definition} *)

val define_domain : t -> string -> Domain.t -> (unit, Errors.t) result
val define_obj_type : t -> Schema.obj_type -> (unit, Errors.t) result
val define_rel_type : t -> Schema.rel_type -> (unit, Errors.t) result
val define_inher_rel_type : t -> Schema.inher_rel_type -> (unit, Errors.t) result

(** {1 Logged mutations} *)

val create_class : t -> name:string -> member_type:string -> (unit, Errors.t) result

val new_object :
  t -> ?cls:string -> ty:string -> ?attrs:(string * Value.t) list -> unit ->
  (Surrogate.t, Errors.t) result

val new_subobject :
  t -> parent:Surrogate.t -> subclass:string -> ?attrs:(string * Value.t) list ->
  unit -> (Surrogate.t, Errors.t) result

val new_relationship :
  t -> ty:string -> participants:(string * Value.t) list ->
  ?attrs:(string * Value.t) list -> unit -> (Surrogate.t, Errors.t) result

val new_subrel :
  t -> parent:Surrogate.t -> subrel:string ->
  participants:(string * Value.t) list -> ?attrs:(string * Value.t) list ->
  unit -> (Surrogate.t, Errors.t) result

val set_attr : t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result

val bind :
  t -> via:string -> transmitter:Surrogate.t -> inheritor:Surrogate.t -> unit ->
  (Surrogate.t, Errors.t) result

val unbind : t -> Surrogate.t -> (unit, Errors.t) result
val delete : t -> ?force:bool -> Surrogate.t -> (unit, Errors.t) result

val acknowledge : t -> Surrogate.t -> (unit, Errors.t) result
(** Clear an inheritance link's staleness, durably: recovery replays the
    acknowledge after the writes it answered, so the link stays fresh. *)

(** {1 Maintenance} *)

val checkpoint : t -> (unit, Errors.t) result
(** Write a fresh snapshot at the next epoch and truncate the WAL. *)

val wal_size_bytes : t -> int
(** Bytes of logged records (excludes the epoch header): 0 right after a
    checkpoint. *)

val close : t -> unit
(** Flushes nothing (appends flush eagerly), closes the log channel and
    releases the directory lock. *)

val crash : t -> unit
(** Abandon the handle as a simulated process death: the log channel is
    closed without checkpointing and the lock released so the directory
    can be re-opened.  Used by the crash-recovery torture harness. *)
