(** Configuration cells of the ablation matrix.

    A cell is one point in the configuration space the kernel already
    exposes through environment switches: resolve cache on/off, index
    access paths on/off, compiled query engine on/off, incremental plan
    maintenance (delta) on/off, provenance recording on/off, failpoint
    machinery armed/unarmed.  The matrix runner
    executes the same curated bench suite once per cell in a fresh
    subprocess, so each axis's contribution is measured, not asserted
    (docs/PERFORMANCE.md, "Ablation matrix").

    Axis order is fixed (cache, index, compile, delta, prov, fp) and cell ids are
    derived from it, so ids are stable across runs and machines —
    [compo benchdiff] joins committed and fresh matrices on them. *)

type axis = {
  ax_name : string;  (** short id component, e.g. ["cache"] *)
  ax_values : string list;  (** e.g. [["on"; "off"]] *)
}

type t
(** One configuration cell: a value for every axis it mentions. *)

val make : (string * string) list -> t
(** Cell from [(axis, value)] pairs; pairs are re-sorted into canonical
    axis order (unknown axes last, alphabetically). *)

val axes : t -> (string * string) list
(** Canonically ordered [(axis, value)] pairs. *)

val id : t -> string
(** Stable identifier, e.g.
    ["cache=on index=on compile=on delta=on prov=off fp=off"]. *)

val value : t -> string -> string option
(** The cell's value on one axis. *)

val env : t -> (string * string) list
(** Environment rendering: the [COMPO_*] variables that realise the
    cell.  Only non-default values emit a variable. *)

val product : axis list -> t list
(** Cartesian product over the axes, in axis-major order. *)

val dedup : t list -> t list
(** Drop cells with duplicate ids, keeping first occurrences. *)

val default_cells : unit -> t list
(** The curated enumeration (18 cells): the full
    cache x index x compile x prov product, a failpoints-armed flip of
    the baseline, and a delta-off flip of the baseline (compiled engine
    forced onto the full-rebuild path via [COMPO_NO_DELTA]). *)

val failpoint_spec : string
(** The [COMPO_FAILPOINTS] spec the armed axis uses: a WAL-append site
    armed with an effectively-infinite countdown, so every append pays
    the armed-site check but the fault never fires. *)
