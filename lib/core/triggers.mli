(** Trigger rules for semi-automatic consistency adaptation.

    The paper (sections 2 and 4.1): when a transmitter is updated, the
    attributes of the inheritance relationship record that adaptation is
    needed, and "in connection with trigger mechanisms ... these
    informations can be used for building mechanisms for semi-automatical
    corrections of consistency violations".  This module is that trigger
    mechanism: rules match events (attribute updates, staleness stamps,
    binds/unbinds), filter with a condition over the affected object, and
    run an action.

    The engine wraps the mutating operations of {!Database}; use
    {!set_attr}/{!bind}/{!unbind} here instead of the plain ones when
    rules should fire.  Actions may themselves call engine operations —
    cascades are depth-limited to keep adaptation terminating. *)

type event =
  | Updated of { target : Surrogate.t; attr : string }
      (** a locally-owned attribute changed *)
  | Stamped of {
      link : Surrogate.t;
      inheritor : Surrogate.t;
      transmitter : Surrogate.t;
      attr : string;
    }  (** an inheritance link was stamped stale by a transmitter update *)
  | Bound of { inheritor : Surrogate.t; transmitter : Surrogate.t; via : string }
  | Unbound of { inheritor : Surrogate.t }

val event_target : event -> Surrogate.t
(** The object a rule's condition and action are evaluated against: the
    updated object, the inheritor, or the (un)bound inheritor. *)

type pattern =
  | On_update of { ty : string option; attr : string option }
  | On_stale of { via : string option; attr : string option }
  | On_bind of { via : string option }
  | On_unbind

type action = Database.t -> event -> (unit, Errors.t) result

type rule = {
  r_name : string;
  r_pattern : pattern;
  r_condition : Expr.t option;
      (** evaluated with the event target as [self]; [None] = always *)
  r_action : action;
}

type t

val create : ?max_depth:int -> Database.t -> t
(** [max_depth] bounds action-triggered cascades (default 16); exceeding
    it fails the outermost operation with [Eval_error]. *)

val db : t -> Database.t
val add_rule : t -> rule -> (unit, Errors.t) result
val remove_rule : t -> string -> (unit, Errors.t) result
val rules : t -> string list

val fired : t -> (string * event) list
(** Audit log of (rule, event) firings, oldest first. *)

val clear_fired : t -> unit

(** {1 Instrumented operations} *)

val set_attr : t -> Surrogate.t -> string -> Value.t -> (unit, Errors.t) result
(** Writes and commits the attribute (dependent links read stale, see
    {!Inheritance.set_attr}), then fires [On_update] for the target and
    [On_stale] per link the write reached.  Those links are enumerated
    only while an [On_stale] rule is registered.  Rule-driven writes
    are validated against domains but not against the database's eager
    constraint checks; run {!Database.validate} in a rule action when a
    cascade must stay constraint-clean. *)

val bind :
  t -> via:string -> transmitter:Surrogate.t -> inheritor:Surrogate.t -> unit ->
  (Surrogate.t, Errors.t) result

val unbind : t -> Surrogate.t -> (unit, Errors.t) result

(** {1 Prefabricated actions} *)

val recompute : attr:string -> Expr.t -> action
(** Derived attributes: set [attr] of the event target to the expression's
    value (evaluated with the target as [self]).  The classic
    semi-automatic adaptation: recompute local data from inherited data
    whenever the transmitter changes. *)

val acknowledge_link : action
(** Clear the staleness flag of the event's link — for rules that fully
    repair the inheritor, completing the adaptation automatically. *)

val log_note : note:string -> action
(** Replace the link's stale note with a rule-specific message (e.g.
    which adaptation procedure should be run manually), until a newer
    transmitter write reaches the link ({!Store.set_stale_note}). *)
