(** Value inheritance — the paper's central mechanism (sections 2 and 4).

    "Via the inheritance relationship, attributes of an object (the
    transmitter) and their values are inherited by another object (the
    inheritor).  The inherited data must not be updated in the inheritor,
    whereas updates of the transmitter data involve all inheritors.  The
    inheritance relationship is selective: only the explicitly specified
    parts of data are transfered from the transmitter to the inheritor."

    Inherited data is resolved {e through} the binding at read time (the
    "view" strategy of section 2), so a transmitter update is instantly
    visible in every inheritor; {!materialize} implements the paper's
    copy-in alternative purely as a measurable baseline. *)

type binding = Store.binding = {
  b_link : Surrogate.t;
  b_via : string;
  b_transmitter : Surrogate.t;
}

val bind :
  Store.t ->
  via:string ->
  transmitter:Surrogate.t ->
  inheritor:Surrogate.t ->
  ?attrs:(string * Value.t) list ->
  unit ->
  (Surrogate.t, Errors.t) result
(** Establish the object-level inheritance relationship; returns the
    surrogate of the relationship object.  Checks:
    - [via] is an inheritance relationship type [R];
    - the inheritor's object type is declared [inheritor-in R]
      (section 4.1's explicit opt-in);
    - the transmitter is an instance of [R]'s transmitter type (possibly
      along its own transmitter chain);
    - the inheritor is not already bound (rebinding requires {!unbind});
    - no cycle: the transmitter must not transitively inherit from the
      inheritor ([Binding_cycle]). *)

val unbind : Store.t -> Surrogate.t -> (unit, Errors.t) result
(** Remove the binding of the given {e inheritor}.  The object keeps its
    type-level structure but loses access to the transmitter's values
    (reads of inherited attributes yield [Null] afterwards). *)

val binding_of : Store.t -> Surrogate.t -> (binding option, Errors.t) result

val transmitter_of : Store.t -> Surrogate.t -> (Surrogate.t option, Errors.t) result
val inheritors_of : Store.t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
(** Direct inheritor {e objects} (not the link objects). *)

val links_of : Store.t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
(** Inheritance-relationship objects in which the entity is transmitter. *)

val transmitter_closure : Store.t -> Surrogate.t -> Surrogate.t list
(** Transmitters reachable by following bindings upward, nearest first. *)

val inheritor_closure : Store.t -> Surrogate.t -> Surrogate.t list
(** All objects that (transitively) inherit from the entity. *)

val attr : Store.t -> Surrogate.t -> string -> (Value.t, Errors.t) result
(** Inheritance-aware attribute read.  Locally-owned attributes read
    locally; permeable attributes resolve through the binding chain,
    notifying the read hook at every hop (the transaction layer turns those
    notifications into the paper's reverse "lock inheritance").  Unbound
    inheritors read permeable attributes as [Null].

    When {!Compo_obs.Provenance.enabled} the resolution additionally
    records a per-read provenance trace: the ordered transmitter chain,
    the relationship object and permeability decision at each hop, and
    the source object.  Nothing memoises a point read: every call walks
    the chain, so a read costs one store lookup per transmitter hop (the
    paper's view strategy; E2 measures it).

    {!Plan}'s flat column fill mirrors this walk hop for hop over its
    adjacency registry (and records the chain it read as the row's
    dependency set, so delta maintenance dirties exactly the rows whose
    chains pass through a touched entity); any divergence between the
    two walks is a bug the differential oracle is designed to catch. *)

val explain :
  Store.t -> Surrogate.t -> string -> (Value.t * Compo_obs.Provenance.read, Errors.t) result
(** One-shot provenance: resolve the attribute with tracing forced on and
    return the value together with its resolution record.  Leaves the
    global provenance switch as it found it. *)

val subclass_members :
  Store.t -> Surrogate.t -> string -> (Surrogate.t list, Errors.t) result
(** Inheritance-aware subclass membership: permeable subclasses are views
    of the transmitter's members. *)

val set_attr : Store.t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result
(** Write a locally-owned attribute and commit it: every (transitively)
    dependent inheritance link reads stale from now on — the
    consistency-control use of relationship attributes described in
    sections 2 and 4.1.  O(1): the write records a clock tick and walks
    nothing; {!Store.is_stale}, {!Store.stale_note} and
    {!Store.acknowledge} read and clear the mark.  Writing an inherited
    attribute fails with [Inherited_readonly]. *)

val reached_links : Store.t -> Surrogate.t -> attr:string -> Surrogate.t list
(** The inheritance links through which [attr] of the entity is
    (transitively) permeable, in propagation order: exactly the links a
    committed write of it marks stale.  Walks the inheritor closure; used
    by {!Triggers} only while a staleness rule is registered. *)

(** Materialized copy of an object's effective data — the section 2
    copy-in strategy, provided as a baseline for benchmark E1. *)
type snapshot = {
  snap_of : Surrogate.t;
  snap_attrs : (string * Value.t) list;  (** all effective attributes *)
  snap_subobjs : (string * Surrogate.t list) list;
}

val materialize : Store.t -> Surrogate.t -> (snapshot, Errors.t) result

val effective_attr_names : Store.t -> Surrogate.t -> (string list, Errors.t) result
