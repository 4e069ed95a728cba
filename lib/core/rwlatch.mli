(** Read/write latch for selects against a mutable store.

    Write mode is exclusive and reentrant per domain (store mutators
    nest); read mode is shared among domains.  Writers are preferred
    over new readers, so read sections must not nest — the kernel's
    single read section per select guarantees this.

    While metrics are enabled, the slow paths profile themselves into
    the [latch.{write,read}.{wait,hold}_seconds] histogram families —
    the store-level counterpart of the server's [server.gate.*]
    contention profile. *)

type t

val create : unit -> t

val with_write : t -> (unit -> 'a) -> 'a
(** Run [f] exclusively: no reader and no other writer is inside.
    Reentrant from the holding domain. *)

val with_read : t -> (unit -> 'a) -> 'a
(** Run [f] sharing with other readers but excluding writers.  Inside
    a {!with_write} section of the same domain it degrades to [f ()]. *)

val held_by_self : t -> bool
(** Whether the calling domain currently holds the write side. *)
