(** Queries over classes and subclasses.

    A small selection facility in the spirit of the paper's "top-down
    selection" of components ("A component is selected by queries ...
    giving the required properties of the component", section 6).  The
    [where] predicate is an {!Expr} evaluated with the candidate object as
    [self], so it sees inherited data. *)

val select :
  Store.t ->
  cls:string ->
  ?where:Expr.t ->
  unit ->
  (Surrogate.t list, Errors.t) result
(** Members of a top-level class satisfying the predicate.  A candidate for
    which the predicate fails to evaluate is excluded (a design object with
    unbound components simply does not match). *)

val select_subobjects :
  Store.t ->
  parent:Surrogate.t ->
  subclass:string ->
  ?where:Expr.t ->
  unit ->
  (Surrogate.t list, Errors.t) result
(** Same over a (possibly inherited) subclass of a complex object. *)

val filter_candidates :
  Store.t -> Expr.t option -> Surrogate.t list -> Surrogate.t list
(** The residual-filter stage of a select: keep the candidates matching
    the predicate, preserving order.  Exposed for {!Database}'s planned
    selects, which run it over an index-produced candidate list. *)

val scan :
  Store.t -> cls:string -> Expr.t option ->
  (Surrogate.t list, Errors.t) result
(** The unplanned access path of {!select} without its span: the
    compiled engine ({!Plan.try_scan}) when it serves, else the class
    extent filtered by the interpreter. *)

val project :
  Store.t -> Surrogate.t list -> string -> (Value.t list, Errors.t) result
(** Inheritance-aware attribute projection over a list of objects. *)

val navigate :
  Store.t -> from:Surrogate.t -> Expr.path -> (Eval.item list, Errors.t) result
(** Path navigation starting at an object ([Pins], [SubGates.Pins], ...). *)

val matching : Store.t -> self:Surrogate.t -> Expr.t -> bool
(** Convenience: does the predicate hold for [self]?  Evaluation failures
    count as [false]. *)

val order_by :
  Store.t -> ?descending:bool -> attr:string -> Surrogate.t list ->
  (Surrogate.t list, Errors.t) result
(** Sort objects by an (inheritance-aware) attribute, [Value.compare]
    order, stable. *)

(** {1 EXPLAIN}

    The plan report of one selection: how candidates were produced
    (index choice vs. extent scan), the predicate split into its indexed
    conjunct and the residual filter, estimated (access-stage) vs.
    actual cardinality, evaluator work, and per-stage wall times.
    {!Database.explain_select} fills it; [compo explain query] renders
    it. *)

(** How the access stage produced candidates.  Values and bounds are
    pre-rendered so the report carries no live index handles. *)
type access =
  | Seq_scan of { extent : string }  (** full scan of the class extent *)
  | Hash_eq of { attr : string; value : string }
  | Ordered_eq of { attr : string; value : string }
  | Ordered_range of { attr : string; interval : string }
      (** [interval] in mathematical notation, e.g. ["[4, +inf)"] *)

type explain = {
  ex_cls : string;
  ex_access : access;
  ex_where : string option;  (** the full predicate as given *)
  ex_residual : string option;
      (** what remains after the indexed conjunct is peeled off; for a
          scan this is the whole predicate *)
  ex_candidates : int;  (** access-stage (estimated) cardinality *)
  ex_rows : int;  (** rows surviving the filter (actual cardinality) *)
  ex_eval_nodes : int;
      (** evaluator nodes spent filtering (0 while metrics are off) *)
  ex_access_seconds : float;
  ex_filter_seconds : float;
  ex_plan : Plan.report option;
      (** [Some] when the compiled engine ({!Plan}) served the filter
          stage; [None] means the interpreted evaluator ran (engine
          disabled, index access path, or read hooks installed — with
          the widened compiler, every predicate shape compiles) *)
}

val access_to_string : access -> string

val pp_explain : ?timings:bool -> Format.formatter -> explain -> unit
(** Indented plan tree.  [timings] (default false) appends per-stage wall
    times; off, the output is deterministic for a given store. *)

(** Aggregate over an (inheritance-aware) attribute of a set of objects.
    [Count_distinct] counts distinct values ([Null] included). *)
type aggregate = Count_values | Count_distinct | Sum | Min | Max

val aggregate :
  Store.t -> aggregate -> attr:string -> Surrogate.t list ->
  (Value.t, Errors.t) result
(** [Sum] requires numeric values ([Null]s are skipped); [Min]/[Max] use
    [Value.compare] over non-[Null] values and yield [Null] on an empty
    range; [Count_values] counts non-[Null] values. *)
