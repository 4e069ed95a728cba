(** Constraint and query expressions.

    The expression language covers everything the paper's constraint
    listings use (section 3 and section 5):

    - path navigation: [Pins.InOut], [SubGates.Pins], [Girders.Bores]
    - aggregates with filters: [count (Pins) where Pins.InOut = IN],
      [sum (Bores.Length)]
    - quantification: [for (s in Bolt, n in Nut): s.Diameter = n.Diameter]
    - arithmetic: [Length < 100 * Height * Width]
    - membership: [Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins]

    Expressions are evaluated by {!Eval} against a store, a [self] object,
    and variable bindings. *)

type path = string list
(** Non-empty segment list.  The first segment resolves, in order, against:
    bound variables, attributes of [self], subclasses / subrelationship
    classes / participants of [self].  Later segments step through record
    fields, collections, attributes, subclasses, or participants of the
    objects reached so far. *)

type unop = Not | Neg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | In  (** membership of a scalar in a collection or class-path *)

type t =
  | Const of Value.t
  | Path of path
  | Count of path * t option
      (** [Count (p, Some filter)] counts members of the class reached by
          [p] satisfying [filter]; inside [filter], the last segment of [p]
          is bound to the current member (the paper writes
          [count (Pins) = 2 where Pins.InOut = IN]). *)
  | Sum of path  (** numeric sum over the class/collection reached *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Forall of (string * path) list * t
      (** [for (s in Bolt, n in Nut): body] *)
  | Exists of (string * path) list * t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

val flip : binop -> binop
(** The comparison that holds with its operands swapped ([c < a] is
    [a > c]); any other operator is returned unchanged. *)

(** Convenience constructors used by hand-built schemas and tests. *)

val path : string list -> t
val int : int -> t
val str : string -> t
val enum : string -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val not_ : t -> t
val in_ : t -> t -> t
val count : ?where:t -> string list -> t
val sum : string list -> t
val forall : (string * string list) list -> t -> t
val exists : (string * string list) list -> t -> t
