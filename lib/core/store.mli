(** The object store: instances of object types, relationship types, and
    inheritance relationship types, plus named top-level classes.

    Structural storage and typing live here.  The {e semantics} of value
    inheritance (binding validation, permeability-filtered resolution)
    live in {!Inheritance}; most applications should go
    through the {!Database} facade, which composes the two and adds
    constraint checking.

    Every entity — plain object, relationship object, inheritance link — has
    a surrogate and may carry attributes, local subobject classes, and local
    subrelationship classes (paper section 3: "A relationship is represented
    by a relationship object", "Like any other relationship, the inheritance
    relationship may possess attributes, subobjects and constraints"). *)

module Smap : Map.S with type key = string

type kind = Object_entity | Relationship_entity | Inheritance_link

type binding = {
  b_link : Surrogate.t;  (** the inheritance-relationship object *)
  b_via : string;  (** its inheritance relationship type *)
  b_transmitter : Surrogate.t;
}

type entity = {
  id : Surrogate.t;
  type_name : string;
  kind : kind;
  mutable attrs : Value.t Smap.t;  (** locally owned attribute values *)
  mutable participants : Value.t Smap.t;
      (** relationship participants: [Ref] or [Set] of [Ref]s *)
  mutable subobjs : Surrogate.t list Smap.t;  (** subclass name -> members *)
  mutable subrels : Surrogate.t list Smap.t;
  mutable owner : Surrogate.t option;  (** enclosing complex object *)
  mutable bound : binding option;  (** as inheritor *)
  mutable inheritor_links : Surrogate.t list;  (** as transmitter *)
  mutable classes_of : string list;  (** top-level classes containing it *)
}

type t

val create : Schema.t -> t
val schema : t -> Schema.t

(** {1 Compiled-plan stamping and the change log}

    The query-compilation layer ({!Plan}, above this module) caches
    flattened adjacency arrays and materialized resolved-value columns
    per store.  Those caches are only valid against a frozen state, so
    the store carries a monotonic mutation stamp that advances on
    {e every} mutation: attribute writes, binding and
    participant changes, deletes, class-extent changes, schema
    evolution, restores.

    A stale stamp does not mean "rebuild everything": every bump
    writes one typed {!change} record into a sliding window over the
    last {!change_log_cap} records, and {!changes_since} hands a
    consumer the exact records between its recorded epoch and now.  Only
    a consumer more than {!change_log_cap} records behind, or a window
    containing {!Ch_global}, must fall back to a full rebuild. *)

val plan_epoch : t -> int
(** Current mutation stamp.  Plan state recorded under an older epoch is
    stale; the holder may catch up by applying {!changes_since} its
    recorded epoch, rebuilding only when that returns [None] or a window
    containing {!Ch_global}. *)

type change =
  | Ch_created of Surrogate.t  (** entity added (object, rel, or link) *)
  | Ch_deleted of Surrogate.t  (** entity removed *)
  | Ch_attr of Surrogate.t * string  (** local attribute written *)
  | Ch_rebound of Surrogate.t
      (** the entity's binding changed: bound, unbound, or its link died
          — re-derive the transmitter edge from current state *)
  | Ch_class_add of string * Surrogate.t  (** (class, member) inserted *)
  | Ch_class_remove of string * Surrogate.t  (** (class, member) removed *)
  | Ch_touched of Surrogate.t
      (** structural change local to the entity (participants, subobject
          membership): resolution chains keep their shape, but any state
          derived by interpreting expressions against it is dirty *)
  | Ch_global  (** unscoped mutation: rebuild everything *)

(** One record per {!plan_epoch} bump; the record for bump [e -> e+1]
    describes that transition. *)

val changes_since : t -> int -> change list option
(** [changes_since t e] is the in-order change window covering epochs
    [(e, plan_epoch t]] — [Some []] when already current.  It is [None]
    exactly when [e] is negative, later than [plan_epoch t], or more
    than {!change_log_cap} records back (the caller must treat its state
    as arbitrarily stale and rebuild). *)

val change_log_cap : int
(** Width of the change log's sliding window, in records: it always
    holds the last [change_log_cap] records, so a consumer that catches
    up at least once every [change_log_cap] mutations never loses its
    window. *)

type plan_slot = ..
(** Opaque per-store slot for compiled-plan state; {!Plan} injects its
    own constructor (this module never inspects the contents). *)

val plan_slot : t -> plan_slot option
val set_plan_slot : t -> plan_slot -> unit

(** {1 Ownership}

    A store, and everything that hangs off it (its compiled-plan slot,
    the transaction manager and the provenance collector), has a single
    owner: callers serialise.  No mutator or select takes a lock, and
    no two domains or threads may call into the kernel at once.  The network server honours this by running
    every request on one event-loop domain ([Compo_net.Server]); in
    process, the caller is the owner.  Lock conflicts between design
    transactions never block (the lock manager fails a conflicting
    acquisition at once), so serialising callers costs no waiting. *)

val record_global_change : t -> unit
(** Log {!Ch_global}, so every plan rebuilds.  Exposed for layers whose
    mutations bypass the store's write paths (schema evolution). *)

(** {1 Hooks}

    Multiple subscribers observe reads and writes: the transaction layer
    acquires locks, attribute indexes keep themselves fresh.  Hooks see
    the surrogate whose data is touched; a hook raising an exception
    aborts the triggering operation. *)

type hook_id

val add_read_hook : t -> (Surrogate.t -> unit) -> hook_id
val add_write_hook : t -> (Surrogate.t -> unit) -> hook_id
val remove_hook : t -> hook_id -> unit

val read_hooks_installed : t -> bool
(** Whether any read hook is currently installed.  The compiled engine
    stands down while hooks are present: a hook is the transaction
    layer's lock inheritance, which must fire per transmitter hop, and a
    column scan performs no hops. *)

val notify_read : t -> Surrogate.t -> unit

val notify_write : ?change:change -> t -> Surrogate.t -> unit
(** Fire the write hooks and advance {!plan_epoch}, logging [change]
    (default {!Ch_global}: external callers that cannot describe their
    mutation precisely must not leave delta consumers with a stale
    window). *)

(** {1 Classes} *)

val create_class : t -> name:string -> member_type:string -> (unit, Errors.t) result
val class_names : t -> string list
val class_member_type : t -> string -> (string, Errors.t) result
val class_members : t -> string -> (Surrogate.t list, Errors.t) result
val insert_into_class : t -> cls:string -> Surrogate.t -> (unit, Errors.t) result
val remove_from_class : t -> cls:string -> Surrogate.t -> (unit, Errors.t) result

(** {1 Entities} *)

val get : t -> Surrogate.t -> (entity, Errors.t) result
val mem : t -> Surrogate.t -> bool
val type_of : t -> Surrogate.t -> (string, Errors.t) result

val is_instance_of : t -> Surrogate.t -> string -> bool
(** True if the entity's type is the given type or reaches it along its
    inheritor-in transmitter chain (the "is-a" reading of value
    inheritance). *)

val iter : t -> (entity -> unit) -> unit
val fold : t -> ('a -> entity -> 'a) -> 'a -> 'a
val entity_count : t -> int

val create_object :
  t ->
  ?cls:string ->
  ty:string ->
  (string * Value.t) list ->
  (Surrogate.t, Errors.t) result
(** Creates a top-level object.  Only locally-owned attributes may be
    given; naming an inherited attribute is [Inherited_readonly].  Values
    must conform to their domains. *)

val create_subobject :
  t ->
  parent:Surrogate.t ->
  subclass:string ->
  (string * Value.t) list ->
  (Surrogate.t, Errors.t) result
(** Adds a member to one of the parent's {e own} subclasses.  Inherited
    subclasses are views of the transmitter and cannot be extended from the
    inheritor side. *)

val create_relationship :
  t ->
  ty:string ->
  participants:(string * Value.t) list ->
  ?attrs:(string * Value.t) list ->
  unit ->
  (Surrogate.t, Errors.t) result
(** Participants are validated against the relates clause: presence,
    cardinality ([One] takes a [Ref], [Many] a [Set] of [Ref]s), and target
    type (exact or via transmitter chain).  The where clause of a subrel is
    the caller's duty ({!Database} checks it). *)

val create_subrel :
  t ->
  parent:Surrogate.t ->
  subrel:string ->
  participants:(string * Value.t) list ->
  ?attrs:(string * Value.t) list ->
  unit ->
  (Surrogate.t, Errors.t) result

val local_attr : t -> Surrogate.t -> string -> (Value.t, Errors.t) result
(** Locally-owned value; [Null] when uninitialised.  Does not resolve
    inheritance — see {!Inheritance.attr}. *)

val set_attr : t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result
(** Rejects inherited attributes ([Inherited_readonly]) and non-conforming
    values.  Fires the write hook.  Does not mark dependent inheritance
    links stale: a write becomes visible to consistency control only when
    it is committed ({!record_write}; {!Database.set_attr} does both). *)

val subclass_members : t -> Surrogate.t -> string -> (Surrogate.t list, Errors.t) result
(** Members of a {e local} subclass.  Inheritance-aware resolution is
    {!Inheritance.subclass_members}. *)

val subrel_members : t -> Surrogate.t -> string -> (Surrogate.t list, Errors.t) result

val participant : t -> Surrogate.t -> string -> (Value.t, Errors.t) result

val set_participant : t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result
(** Rewire one participant of a relationship object (validated against the
    relates clause; the referrer index follows).  Fires the write hook. *)

val owner_of : t -> Surrogate.t -> (Surrogate.t option, Errors.t) result

val referrers : t -> Surrogate.t -> Surrogate.t list
(** Relationship entities having the given entity among their participants. *)

val delete : t -> ?force:bool -> Surrogate.t -> (unit, Errors.t) result
(** Deletes the entity and, transitively, its subobjects and
    subrelationships (section 3: "All subobjects depend on the complex
    object, they are deleted with the complex object").

    Restrictions, lifted by [~force:true]:
    - a transmitter with bound inheritors ([Delete_restricted]); forcing
      unbinds them (they keep their structure, lose the inherited values)
      and deletes the link objects;
    - an entity referenced as a participant of a relationship
      ([Delete_restricted]); forcing deletes those relationships too. *)

(** {1 Low-level: inheritance links}

    Structural creation/removal of inheritance-relationship objects.  No
    semantic validation happens here — use {!Inheritance.bind} /
    {!Inheritance.unbind}, which check inheritor-in declarations, type
    compatibility, and cycles before delegating. *)

val add_inheritance_link :
  t ->
  ty:string ->
  transmitter:Surrogate.t ->
  inheritor:Surrogate.t ->
  attrs:(string * Value.t) list ->
  (Surrogate.t, Errors.t) result

val remove_inheritance_link : t -> Surrogate.t -> (unit, Errors.t) result

(** {1 Staleness (consistency control, sections 2 and 4.1)}

    A transmitter update marks every inheritance relationship it reaches
    as needing adaptation.  The mark is derived, not stored: a committed
    write records a staleness-clock tick and the surrogate generator's
    position per [(entity, attribute)] ({!record_write}, O(1)), and
    {!is_stale} walks up from the link's transmitter.  At each hop the
    attribute set narrows to that hop's permeability, and a write counts
    only if every link on the path already existed when it committed:
    surrogates are minted in order, so that holds iff each link's
    surrogate is below the recorded generator position, and no link
    stores a bind time.  The
    link is stale iff such a write is newer than its last acknowledge.
    Unbind and force-delete cut a subtree's ancestry; they pin what had
    reached each link below the cut, walking only that subtree. *)

val record_write : t -> Surrogate.t -> string -> unit
(** Record a committed write of the entity's attribute: every link it
    reaches (permeably, through links bound before now) becomes stale.
    Call it only for writes that survive — autocommit writes, a
    transaction's writes at commit, eager-checked writes that pass. *)

val is_stale : t -> Surrogate.t -> (bool, Errors.t) result
(** Whether a committed write newer than the link's last acknowledge
    reached it.  [Invalid_binding] for anything but an inheritance link. *)

val stale_note : t -> Surrogate.t -> (string, Errors.t) result
(** Note of the newest write that reached the link (acknowledged or
    not), or of a newer {!set_stale_note}; [""] when neither exists. *)

val acknowledge : t -> Surrogate.t -> (unit, Errors.t) result
(** Clear the link's staleness after adaptation (the paper: "in most
    cases this adaptation has to be done manually by a user"): writes up
    to now no longer count. *)

val set_stale_note : t -> Surrogate.t -> string -> (unit, Errors.t) result
(** Replace the link's note until a newer write reaches it (the trigger
    action {!Triggers.log_note}). *)

val restore_staleness : t -> Surrogate.t -> stale:bool -> note:string -> unit
(** Reinstate a link's staleness and note as a pinned stamp (snapshot
    load: a snapshot stores staleness materialized). *)

(** {1 Integrity} *)

val check_invariants : t -> string list
(** Structural health check used by property tests and the CLI: verifies
    bidirectional binding links, owner back-pointers of subobjects and
    subrelationships, class membership coherence, the referrer index,
    dangling participant references, and acyclicity of both the
    containment and the inheritance graphs.  Returns human-readable
    violation descriptions; healthy stores return []. *)

(** {1 Persistence support} *)

val generator : t -> Surrogate.Gen.t

val restore_entity : t -> entity -> unit
(** Insert a decoded entity verbatim (codec use only). *)

val restore_class : t -> name:string -> member_type:string -> members:Surrogate.t list -> unit
