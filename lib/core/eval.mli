(** Evaluation of {!Expr} expressions against the store.

    Used by {!Constraints} (integrity constraints, subrel where clauses)
    and {!Query}.  Path resolution is inheritance-aware: attributes and
    subclasses resolve through {!Inheritance}, so constraints over
    composite objects see the component data the paper says they see
    (e.g. [Girders.Bores] reaches the bores of the actual girder the
    subobject inherits from). *)

(** A navigation item: an entity (object/relationship) or a plain value. *)
type item = E of Surrogate.t | V of Value.t

type env

val env : ?self:Surrogate.t -> ?vars:(string * item) list -> Store.t -> env
val with_var : env -> string -> item -> env
val self_of : env -> Surrogate.t option

val eval : env -> Expr.t -> (Value.t, Errors.t) result
(** Full evaluation to a scalar value.  A path reaching several items in a
    scalar context is an [Eval_error]; use {!eval_items} for multi-valued
    paths. *)

val eval_bool : env -> Expr.t -> (bool, Errors.t) result
(** Evaluation in boolean context; non-boolean results are [Eval_error]. *)

val eval_items : env -> Expr.path -> (item list, Errors.t) result
(** Resolve a path to the (multi-)set of items it denotes.  The first
    segment resolves against, in order: bound variables; attributes,
    subclasses, subrelationship classes, and participants of [self]; and
    finally top-level class names.  Subsequent segments step through record
    fields, collection members, object references, attributes, subclasses,
    and participants. *)

val item_value : Store.t -> item -> Value.t
(** Entities become [Ref]s; values pass through. *)

val numeric_binop : Expr.binop -> Value.t -> Value.t -> (Value.t, Errors.t) result
(** Arithmetic with the evaluator's coercion rules: [Int op Int] stays
    exact, any other numeric pair coerces to float, division by zero and
    non-numeric operands are [Eval_error]s.  Exposed so {!Plan}'s
    compiled closures apply byte-identical semantics. *)

val compare_values : Value.t -> Value.t -> int
(** Comparison with the evaluator's coercion rule: numbers compare by
    magnitude across [Int]/[Real], everything else structurally.
    Allocates nothing.  Exposed so {!Plan}'s compiled comparisons apply
    the same rule. *)

val node_count : unit -> int
(** Process-wide [eval.node] counter reading (0 while metrics are
    disabled).  EXPLAIN takes a delta around the filter stage to report
    evaluator work per query. *)
