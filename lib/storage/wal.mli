(** Write-ahead log of logical database operations.

    The file opens with a 16-byte header ([magic; epoch]) pairing the log
    with the snapshot generation it continues; each record after it is
    framed as [length; crc32; payload].  {!read_file} tolerates a torn
    tail (a crash mid-append) by stopping at the first incomplete or
    corrupt frame and reporting how many clean records it read — a corrupt
    {e first} frame, torn header included, reads as zero records, never an
    exception.

    Replay is deterministic: the surrogate generator is sequential, so
    re-applying the records to the same starting snapshot reproduces the
    same surrogates; every creating record carries the surrogate it
    expects and {!apply} verifies it.

    Failpoint sites ([wal.append.before_frame], [wal.append.frame],
    [wal.append.after_frame], [wal.header.write]) cover every append
    boundary; see {!Compo_faults.Failpoint} and docs/DURABILITY.md. *)

open Compo_core

type record =
  | Define_domain of { name : string; domain : Domain.t }
  | Define of string  (** codec-encoded schema entry *)
  | Create_class of { name : string; member_type : string }
  | Create_object of {
      cls : string option;
      ty : string;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_subobject of {
      parent : Surrogate.t;
      subclass : string;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_relationship of {
      ty : string;
      participants : (string * Value.t) list;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_subrel of {
      parent : Surrogate.t;
      subrel : string;
      participants : (string * Value.t) list;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Set_attr of { target : Surrogate.t; name : string; value : Value.t }
  | Bind of {
      via : string;
      transmitter : Surrogate.t;
      inheritor : Surrogate.t;
      expect : Surrogate.t;
    }
  | Unbind of { inheritor : Surrogate.t }
  | Delete of { target : Surrogate.t; force : bool }
  | Acknowledge of { link : Surrogate.t }
      (** consistency control: the link's adaptation is done, so replay
          must not resurrect its staleness *)

val encode_record : record -> string
val decode_record : string -> (record, Errors.t) result

val header_len : int
(** Bytes of the [magic; epoch] file header. *)

val write_header : Out_channel.t -> epoch:int -> unit
(** Start a fresh (empty or truncated) log file, then flush. *)

val append : Out_channel.t -> record -> unit
(** Frame and write one record, then flush. *)

type replay = {
  rp_epoch : int option;
      (** [None] when the file is missing or empty (a fresh log), or when
          its header is torn or corrupt (see [rp_clean]). *)
  rp_records : record list;  (** the clean prefix, in append order *)
  rp_clean : bool;
      (** [false] when a torn or corrupt tail (or header) was skipped *)
  rp_clean_bytes : int;
      (** file offset where the clean prefix ends; an unclean log must be
          truncated here before appending, or new records land behind the
          corrupt tail and are lost to the next recovery *)
}

val read_file : string -> replay
(** All clean records of a WAL file.  Total: corruption anywhere —
    including a corrupt first frame or a frame length engineered to
    overflow the bounds check — shortens the clean prefix, it never
    raises. *)

val apply : Database.t -> record -> (unit, Errors.t) result
(** Re-execute one record against the database; creating records verify
    the surrogate they produce. *)
