(** Provenance: the causal record of one inherited-attribute read.

    The paper's value inheritance answers a read through a chain of
    relationship objects, each with its own permeability; this module
    captures {e why} a read returned what it did — the ordered
    transmitter chain walked, the relationship object and permeability
    decision at every hop, and the final source object.

    The collector is a process-global, explicitly enabled sink (like
    {!Metrics}/{!Trace}): while {!enabled} is [false] every recording
    entry point is a single load-and-branch no-op, so the resolution
    hot path stays allocation-free.  [Inheritance.attr] is the producer;
    [compo explain] and the tests are the consumers.

    Entities are identified by their rendered surrogates (strings), so
    this module stays below [compo_core] in the link order. *)

(** What happened at one object of the chain. *)
type hop_kind =
  | Local  (** the attribute is owned here: this object is the source *)
  | Follow of {
      via : string;  (** inheritance-relationship type of the binding *)
      link : string;  (** surrogate of the relationship object *)
      transmitter : string;  (** surrogate of the next transmitter *)
      permeable : bool;
          (** the relationship type's [inheriting] clause lets the
              attribute through *)
    }
  | Unbound  (** the attribute only reaches this type through a
                 relationship, but the object has no binding: the read
                 yields [Null] here *)

type hop = {
  hop_object : string;  (** surrogate of the object at this hop *)
  hop_type : string;  (** its object type *)
  hop_kind : hop_kind;
}

(** One fully resolved read, origin first. *)
type read = {
  r_object : string;  (** surrogate the read started at *)
  r_attr : string;
  r_hops : hop list;
  r_value : string;  (** rendering of the resolved value *)
  r_trace : string option;
      (** the wire-level trace id ({!Trace.current_trace}) active when
          the read finished — links the chain back to the client
          request that caused it; [None] outside a traced request *)
}

val source_of : read -> string option
(** Surrogate of the object that supplied the value — the [Local] hop —
    or [None] when the chain ended unbound ([Null]). *)

(** {1 Global switch} *)

val enabled : unit -> bool
(** Whether recording is switched on.  The collector is a single global
    slot: like the rest of the kernel it has one owner at a time, and
    callers serialise. *)

val enable : unit -> unit
val disable : unit -> unit

val configure_from_env : ?getenv:(string -> string option) -> unit -> unit
(** [COMPO_PROVENANCE=1|true|yes] enables the collector.  Entry points
    (CLI, bench harness) call this at startup so the ablation matrix
    can toggle provenance recording per configuration cell. *)

(** {1 Recording (producer side)}

    [begin_read] opens an in-flight accumulator, [add_hop] appends to
    it, [finish_read] seals it into the ring of recent reads,
    [abort_read] drops it (resolution failed).  All four are no-ops
    while disabled or (except [begin_read]) with no read in flight. *)

val begin_read : origin:string -> attr:string -> unit
val add_hop : hop -> unit
val finish_read : value:string -> unit
val abort_read : unit -> unit

(** {1 Inspection (consumer side)} *)

val last : unit -> read option
(** The most recently finished read, if any. *)

val recent : unit -> read list
(** Finished reads, most recent first, clipped to the last 64. *)

val clear : unit -> unit

(** {1 Rendering} *)

val pp_hops : Format.formatter -> hop list -> unit
(** The chain as an indented tree, one level per transmitter hop. *)

val pp_read : Format.formatter -> read -> unit
(** Full report: resolved value, source, chain tree. *)
