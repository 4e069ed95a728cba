(** The public facade of the object model.

    Composes {!Schema}, {!Store}, {!Inheritance}, {!Constraints}, {!Query},
    and {!Composite} into the API applications use: schema definition,
    object/relationship creation, inheritance-aware reads, writes that
    mark dependent inheritance links stale, and constraint validation.

    Constraint checking policy: with [eager_checks] on (default off), every
    attribute write and subrelationship creation validates the affected
    entity and rolls back on violation.  Design databases usually build
    objects incrementally, so the default is to validate explicitly via
    {!validate} / {!validate_all} — the paper's design transactions check
    consistency at save time, not per update. *)

type t

val create : ?eager_checks:bool -> unit -> t
val of_parts : ?eager_checks:bool -> Schema.t -> Store.t -> t
val schema : t -> Schema.t
val store : t -> Store.t
val set_eager_checks : t -> bool -> unit

(** {1 Schema definition} *)

val define_domain : t -> string -> Domain.t -> (unit, Errors.t) result
val define_obj_type : t -> Schema.obj_type -> (unit, Errors.t) result
val define_rel_type : t -> Schema.rel_type -> (unit, Errors.t) result
val define_inher_rel_type : t -> Schema.inher_rel_type -> (unit, Errors.t) result

(** {1 Classes and objects} *)

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
(** Validates the subrelationship class's [where] clause immediately; on
    violation the relationship is removed again and
    [Constraint_violation] returned. *)

val delete : t -> ?force:bool -> Surrogate.t -> (unit, Errors.t) result

(** {1 Inheritance} *)

val bind :
  t -> via:string -> transmitter:Surrogate.t -> inheritor:Surrogate.t ->
  ?attrs:(string * Value.t) list -> unit -> (Surrogate.t, Errors.t) result

val unbind : t -> Surrogate.t -> (unit, Errors.t) result
val transmitter_of : t -> Surrogate.t -> (Surrogate.t option, Errors.t) result
val inheritors_of : t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
val links_of : t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
val is_stale : t -> Surrogate.t -> (bool, Errors.t) result
(** Whether a committed transmitter write reached the link since it was
    bound or last acknowledged (derived on demand, O(chain depth)). *)

val stale_note : t -> Surrogate.t -> (string, Errors.t) result
val acknowledge : t -> Surrogate.t -> (unit, Errors.t) result

(** {1 Data access} *)

val get_attr : t -> Surrogate.t -> string -> (Value.t, Errors.t) result
(** Inheritance-aware read. *)

val set_attr : t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result
(** Local write that marks dependent inheritance links stale (O(1): the
    write records its epoch, see {!Store.record_write}); rejects inherited
    attributes.  Under [eager_checks], validates the entity and rolls the
    write back on violation, unrecorded. *)

val subclass_members : t -> Surrogate.t -> string -> (Surrogate.t list, Errors.t) result
val subrel_members : t -> Surrogate.t -> string -> (Surrogate.t list, Errors.t) result
val participant : t -> Surrogate.t -> string -> (Value.t, Errors.t) result
val type_of : t -> Surrogate.t -> (string, Errors.t) result

(** {1 Validation} *)

val validate : t -> Surrogate.t -> (Constraints.violation list, Errors.t) result
val validate_all : t -> Constraints.violation list

(** {1 Query and composite operations} *)

val create_index : t -> cls:string -> attr:string -> (unit, Errors.t) result
(** Register an attribute index (see {!Index}).  [select] then serves
    equality predicates on that attribute from the index. *)

val drop_index : t -> cls:string -> attr:string -> (unit, Errors.t) result

val create_ordered_index : t -> cls:string -> attr:string -> (unit, Errors.t) result
(** Register an ordered index (see {!Ordered_index}).  [select] then
    serves range predicates ([<], [<=], [>], [>=]) and equality on that
    attribute from the index.  To keep index answers identical to the
    scan's coercing comparison semantics, the optimizer only uses ordered
    indexes for integer attributes with integer constants and string
    attributes with string constants. *)

val drop_ordered_index : t -> cls:string -> attr:string -> (unit, Errors.t) result

val indexes : t -> (string * string) list
(** Registered hash-index (class, attribute) pairs. *)

val ordered_indexes : t -> (string * string) list

val index_planning_enabled : unit -> bool
val set_index_planning_enabled : bool -> unit
(** Process-wide access-path ablation switch (default on; initial state
    honours [COMPO_NO_INDEX=1]).  While off, {!select} and
    {!explain_select} ignore registered indexes and run the sequential
    scan + filter plan; index {e maintenance} is unaffected, so
    {!verify_indexes} and fsck stay meaningful.  The bench matrix uses
    this to measure what index access paths actually buy per cell. *)

val verify_indexes : t -> string list
(** Cross-check every registered index against the store (see
    {!Index.verify}); [[]] when all are consistent.  Used by fsck. *)

val select :
  t ->
  cls:string ->
  ?jobs:int ->
  ?where:Expr.t ->
  unit ->
  (Surrogate.t list, Errors.t) result
(** Members of [cls] satisfying [where].  The planner serves an indexed
    comparison between an attribute and a constant ([Attr = const],
    [Attr <= const], ..., either operand order) from the registered hash
    or ordered index; inside a conjunction, one indexable conjunct feeds
    the index and the rest filters the candidates.  Anything else scans
    the extent.

    [jobs] is accepted and ignored. *)

val select_subobjects :
  t -> parent:Surrogate.t -> subclass:string -> ?where:Expr.t ->
  unit -> (Surrogate.t list, Errors.t) result

val explain_select :
  t -> cls:string -> ?where:Expr.t -> unit ->
  (Surrogate.t list * Query.explain, Errors.t) result
(** Run [select] through the same planner and report the plan: access
    choice (hash / ordered index vs. scan), indexed conjunct vs. residual
    predicate, estimated (access-stage) vs. actual cardinality, evaluator
    node count (when metrics are on), and per-stage wall times.  Surfaced
    by [compo explain query]. *)

val explain_attr :
  t -> Surrogate.t -> string ->
  (Value.t * Compo_obs.Provenance.read, Errors.t) result
(** Provenance of one inheritance-aware read: the value plus the
    transmitter chain, per-hop permeability decisions, and the source
    object (see {!Inheritance.explain}).  Surfaced by
    [compo explain read]. *)

val expand : t -> ?max_depth:int -> Surrogate.t -> (Composite.node, Errors.t) result
val bill_of_materials : t -> Surrogate.t -> ((Surrogate.t * int) list, Errors.t) result
val where_used : t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
val implementations_of : t -> Surrogate.t -> (Surrogate.t list, Errors.t) result
