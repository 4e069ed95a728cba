(** Binary encoding of values, domains, expressions, schemas, and store
    contents, used by the snapshot and WAL layers.

    The format is length-prefixed and tagged; decoding validates tags and
    bounds and fails with [Io_error] on malformed input rather than
    raising. *)

open Compo_core

(** Append-only encoder. *)
module Enc : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val list : t -> ('a -> unit) -> 'a list -> unit
  val option : t -> ('a -> unit) -> 'a option -> unit
  val contents : t -> string
end

(** Cursor-based decoder. *)
module Dec : sig
  type t

  val of_string : string -> t
  val byte : t -> (int, Errors.t) result
  val int : t -> (int, Errors.t) result
  val bool : t -> (bool, Errors.t) result
  val float : t -> (float, Errors.t) result
  val string : t -> (string, Errors.t) result
  val list : t -> (unit -> ('a, Errors.t) result) -> ('a list, Errors.t) result
  val option : t -> (unit -> ('a, Errors.t) result) -> ('a option, Errors.t) result
  val at_end : t -> bool
end

val crc32 : string -> int32
(** Standard CRC-32 (IEEE polynomial), for record checksums. *)

val encode_value : Enc.t -> Value.t -> unit
val decode_value : Dec.t -> (Value.t, Errors.t) result
val encode_domain : Enc.t -> Domain.t -> unit
val decode_domain : Dec.t -> (Domain.t, Errors.t) result
val encode_expr : Enc.t -> Expr.t -> unit
val decode_expr : Dec.t -> (Expr.t, Errors.t) result

val encode_entry : Schema.t -> Schema.entry -> string
(** One schema entry as a standalone blob (used by WAL [Define] records).
    The registry is needed to embed inline subclass member types. *)

val decode_entry : Dec.t -> (Schema.entry, Errors.t) result

val encode_schema : Schema.t -> string
val decode_schema : string -> (Schema.t, Errors.t) result
(** Round-trips named domains and all type entries in definition order. *)

val encode_store : Store.t -> string
val decode_store : Schema.t -> string -> (Store.t, Errors.t) result
(** Round-trips all entities (attributes, participants, containment,
    bindings), classes, and the surrogate generator position.  Link
    staleness and notes are stored materialized and load back as pinned
    stamps ({!Store.restore_staleness}). *)
