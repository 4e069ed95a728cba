(** [compo benchdiff]: joins a fresh matrix against the committed
    baseline on cell ids and classifies every cell.

    Gating verdicts (nonzero exit): a cell that ran ok in the baseline
    and now fails, a cell missing from the fresh matrix, and a wall-time
    regression beyond the per-cell relative threshold.  New skips are
    loud — they head their own section in both renderings — but only
    gate when [fail_on_new_skip] is set, because a smaller runner
    legitimately skips multicore cells that the baseline machine ran
    (that visibility-without-redness is the honest part of the gate).

    Wall-time comparison is deliberately coarse ([ratio] x baseline,
    and only above [floor] seconds): the committed baseline and a CI
    runner are different machines, so tight time thresholds would gate
    on hardware.  Outcome changes and the machine-independent metrics
    ([eval.node]) are the sharp signals. *)

type thresholds = {
  time_ratio : float;  (** fresh/base ratio that flags a regression *)
  time_floor_s : float;  (** ignore cells faster than this, both sides *)
  metric_ratio : float;
      (** relative delta above which a key metric is listed as changed
          (informational) *)
}

val default_thresholds : thresholds
(** [ratio 3.0], [floor 0.5s], [metric 0.10]. *)

type verdict =
  | Same  (** no change worth reporting (includes still-failing and
              still-skipped cells) *)
  | Regression of string  (** ok in baseline, failed now *)
  | Time_regression  (** both ok, fresh wall time beyond threshold *)
  | Improvement  (** both ok, fresh faster beyond threshold *)
  | New_skip of string  (** ok in baseline, skipped now (reason) *)
  | Unskipped  (** skipped or failed in baseline, ok now *)
  | Missing_cell  (** in baseline, absent from fresh *)
  | New_cell  (** in fresh, absent from baseline *)

type entry = {
  e_id : string;
  e_verdict : verdict;
  e_base : Report.row option;
  e_fresh : Report.row option;
  e_metric_notes : string list;
      (** per-metric relative changes beyond [metric_ratio] *)
}

type result = {
  entries : entry list;  (** baseline order, then fresh-only cells *)
  regressions : int;  (** [Regression] + [Time_regression] + [Missing_cell] *)
  new_skips : int;
  improvements : int;  (** [Improvement] + [Unskipped] *)
  fresh_skips : (string * string) list;
      (** every skipped cell of the fresh matrix (id, reason) — new or
          not, these render loudly *)
}

val compare_matrices :
  ?thresholds:thresholds -> baseline:Report.t -> fresh:Report.t -> unit -> result

val exit_code : ?fail_on_new_skip:bool -> result -> int
(** 0 clean, 1 on regressions (or new skips when requested). *)

val render_table : result -> string
(** Aligned text table, one line per cell, regressions flagged. *)

val render_markdown :
  baseline_name:string -> fresh_name:string -> result -> string
(** GitHub-flavoured markdown for [$GITHUB_STEP_SUMMARY]: verdict
    counts, the cell table, and a loud skipped-cells section. *)
